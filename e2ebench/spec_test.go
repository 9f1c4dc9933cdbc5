package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestBenchmarkJSONInSync keeps the committed BENCHMARK.json equal to the
// definitions it is generated from.
func TestBenchmarkJSONInSync(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Fatal("BENCHMARK.json is stale: regenerate with `go run . spec > ../BENCHMARK.json`")
	}
}

func TestDefinitionsAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range slices.Concat(workloads, manualWorkloads) {
		check(w.Name, "x", "lower")
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

// TestLayerMapNamesRealMetrics checks that every prediction in the layer
// map names a known metric and workload.
func TestLayerMapNamesRealMetrics(t *testing.T) {
	known := map[string]bool{}
	for _, m := range endToEnd {
		known[m.Name] = true
	}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range slices.Concat(workloads, manualWorkloads) {
		wl[w.Name] = true
	}
	for layer, moves := range layerMap() {
		for _, mv := range moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if !ok || !known[metric] || !wl[workload] {
				t.Errorf("%s predicts unknown %q", layer, mv)
			}
		}
	}
}

func TestBaselineParses(t *testing.T) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		t.Fatal(err)
	}
}
