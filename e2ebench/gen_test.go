package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// generated renders every generated input of a seed: both study
// generators and the dashboard schedule.
func generated(t *testing.T, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < 50; i++ {
		for _, v := range []any{sphereSpec(seed, i), ppoSpec(seed, i), campaignSeed(seed, i)} {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Encode(readSchedule(seed, dashboardRate, 500)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	a, b := generated(t, 7), generated(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, generated(t, 8)) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestGeneratedSpecsAreValid(t *testing.T) {
	for i := 0; i < 20; i++ {
		for _, sp := range []any{sphereSpec(3, i), ppoSpec(3, i)} {
			spec := sp.(interface{ Validate() error })
			if err := spec.Validate(); err != nil {
				t.Fatalf("input %d: %v", i, err)
			}
		}
	}
}

func TestReadScheduleIsFixedRate(t *testing.T) {
	ops := readSchedule(1, 100, 5)
	for i, op := range ops {
		if want := int64(i) * 10_000_000; op.Due.Nanoseconds() != want {
			t.Fatalf("op %d due at %v, want %dns", i, op.Due, want)
		}
		if op.Kind < 0 || op.Kind >= numReadKinds {
			t.Fatalf("op %d has kind %d", i, op.Kind)
		}
	}
}
