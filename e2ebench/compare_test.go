package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestCompareRefusesTimesAcrossMachines(t *testing.T) {
	m := machine{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOARCH: "amd64", Commit: "aaa"}
	old := result{Machine: m, Workload: "tablei", Metrics: map[string]metricValue{
		"campaign_s":        {Value: 10, Unit: "s"},
		"nn.forward_passes": {Value: 100, Unit: "count"},
	}}
	nw := old
	nw.Machine.Commit = "bbb" // another commit on the same machine compares
	nw.Metrics = map[string]metricValue{
		"campaign_s":        {Value: 9, Unit: "s"},
		"nn.forward_passes": {Value: 90, Unit: "count"},
	}
	var out bytes.Buffer
	if code := compareResults(&out, []result{old}, []result{nw}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "-10.0%") || strings.Contains(out.String(), "refused") {
		t.Fatalf("same machine, different commit: %s", out.String())
	}

	nw.Machine.CPU = "cpu B"
	out.Reset()
	compareResults(&out, []result{old}, []result{nw})
	text := out.String()
	if !strings.Contains(text, "campaign_s") || !strings.Contains(text, "refused") {
		t.Fatalf("time comparison not refused across machines: %s", text)
	}
	if !strings.Contains(text, "100 -> 90") {
		t.Fatalf("counts not compared across machines: %s", text)
	}
}
