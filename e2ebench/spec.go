package main

import (
	"bytes"
	"encoding/json"
)

// The benchmark's definitions. BENCHMARK.json at the repository root is
// generated from them (`go run . spec > ../BENCHMARK.json`) and a test
// keeps the two in sync.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"tablei", "the paper's 18-configuration Table I campaign in-process: training stack only, no service path"},
	{"fleet-ppo-read", "real PPO studies awaited over SSE plus an open-loop dashboard reading live studies through the router"},
}

// manualWorkloads run by name but are not in BENCHMARK.json: their
// end-to-end spread over ten runs of the same code exceeds the bounds on
// a shared 2-vCPU host (see README.md). The layer map keeps their
// predictions.
var manualWorkloads = []workloadDef{
	{"fleet-sphere", "microsecond sphere studies through router, 2 daemons and 2 workers: control plane only, training idle"},
}

// e2eDef is an end-to-end metric: what a user of the system sees. Bound
// is the share of the parent's median by which it may worsen.
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"campaign_s", "s", "lower", 0.25},
	{"trials_per_s", "1/s", "higher", 0.25},
	{"study_p50_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.2},
}

// layerDef is a per-layer metric from the traced run. Moves lists the
// end-to-end metric it should move, as metric@workload; the list is the
// benchmark's prediction, written down before any change is measured.
type layerDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"-"`
}

var perLayer = []layerDef{
	// End-to-end metrics that not every workload has (reads, tails) or
	// that may be 0 (failures), reported by the traced run.
	{"read_p50_ms", "ms", "lower", []string{"read_p50_ms@fleet-ppo-read"}},
	{"study_p90_ms", "ms", "lower", []string{"study_p90_ms@fleet-sphere", "study_p90_ms@fleet-ppo-read"}},
	{"read_p99_ms", "ms", "lower", []string{"read_p99_ms@fleet-ppo-read"}},
	{"error_rate", "ratio", "lower", []string{"error_rate@fleet-ppo-read"}},

	{"experiments.sac_trial_s", "s", "lower", []string{"campaign_s@tablei"}},
	{"experiments.ppo_trial_s", "s", "lower", []string{"campaign_s@tablei"}},
	{"distrib.rllib_s", "s", "lower", []string{"campaign_s@tablei"}},
	{"distrib.sb_s", "s", "lower", []string{"campaign_s@tablei"}},
	{"distrib.tfagents_s", "s", "lower", []string{"campaign_s@tablei"}},

	{"airdrop.env_steps", "count", "lower", []string{"campaign_s@tablei"}},
	{"nn.forward_passes", "count", "lower", []string{"campaign_s@tablei", "trials_per_s@fleet-ppo-read"}},
	{"nn.backward_passes", "count", "lower", []string{"campaign_s@tablei", "trials_per_s@fleet-ppo-read"}},
	{"tensor.pool_chunks", "count", "lower", []string{"campaign_s@tablei", "trials_per_s@fleet-ppo-read"}},
	{"tensor.serial_calls", "count", "lower", []string{"campaign_s@tablei", "trials_per_s@fleet-ppo-read"}},

	{"tensor.cpu_share", "ratio", "lower", []string{"campaign_s@tablei"}},
	{"nn.cpu_share", "ratio", "lower", []string{"campaign_s@tablei"}},
	{"sac.cpu_share", "ratio", "lower", []string{"campaign_s@tablei"}},
	{"ppo.cpu_share", "ratio", "lower", []string{"campaign_s@tablei"}},
	{"airdrop.cpu_share", "ratio", "lower", []string{"campaign_s@tablei"}},
	{"ode.cpu_share", "ratio", "lower", []string{"campaign_s@tablei"}},
	{"core.cpu_share", "ratio", "lower", []string{"campaign_s@tablei"}},
	{"runtime.cpu_share", "ratio", "lower", []string{"campaign_s@tablei"}},
	{"other.cpu_share", "ratio", "lower", []string{"campaign_s@tablei"}},

	{"shard.submit_ms", "ms", "lower", []string{"study_p50_ms@fleet-sphere"}},
	{"shard.place_ms", "ms", "lower", []string{"study_p50_ms@fleet-sphere"}},
	{"shard.proxy_read_ms", "ms", "lower", []string{"read_p99_ms@fleet-ppo-read"}},

	{"studyd.submit_ms", "ms", "lower", []string{"study_p50_ms@fleet-sphere"}},
	{"studyd.files_per_study", "count", "lower", []string{"study_p50_ms@fleet-sphere"}},
	{"studyd.read_p50_ms", "ms", "lower", []string{"read_p99_ms@fleet-ppo-read"}},
	{"studyd.read_p99_ms", "ms", "lower", []string{"read_p99_ms@fleet-ppo-read"}},
	{"studyd.eval_ms", "ms", "lower", []string{"trials_per_s@fleet-sphere"}},
	{"studyd.sse_truncated", "count", "lower", []string{"error_rate@fleet-ppo-read"}},

	{"executor.dispatch_p50_ms", "ms", "lower", []string{"trials_per_s@fleet-sphere", "study_p90_ms@fleet-sphere"}},
	{"executor.dispatch_p99_ms", "ms", "lower", []string{"trials_per_s@fleet-sphere", "study_p90_ms@fleet-sphere"}},
	{"executor.worker_ms", "ms", "lower", []string{"trials_per_s@fleet-sphere", "study_p90_ms@fleet-sphere"}},
	{"executor.wire_ms", "ms", "lower", []string{"trials_per_s@fleet-sphere", "study_p90_ms@fleet-sphere"}},
	{"executor.dispatches_per_trial", "count", "lower", []string{"error_rate@fleet-sphere", "trials_per_s@fleet-sphere"}},
	{"executor.spec_misses", "count", "lower", []string{"error_rate@fleet-sphere", "trials_per_s@fleet-sphere"}},
	{"executor.retries", "count", "lower", []string{"error_rate@fleet-sphere", "trials_per_s@fleet-sphere"}},

	{"journal.bytes_per_trial", "bytes", "lower", []string{"trials_per_s@fleet-sphere", "heap_live_mb@fleet-sphere"}},
	{"obs.bus_dropped", "count", "lower", []string{"error_rate@fleet-ppo-read"}},

	{"span.queue_ms", "ms", "lower", []string{"trials_per_s@fleet-sphere"}},
	{"span.dispatch_ms", "ms", "lower", []string{"trials_per_s@fleet-sphere"}},
	{"span.objective_ms", "ms", "lower", []string{"trials_per_s@fleet-sphere"}},
	{"span.journal_ms", "ms", "lower", []string{"trials_per_s@fleet-sphere"}},

	{"bench.trace_overhead", "ratio", "lower", nil},
	{"bench.generator_late_p99_ms", "ms", "lower", nil},
}

// benchmarkSpec is the BENCHMARK.json document.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

// runSeconds is how long one run measures.
const runSeconds = 40

func specJSON() []byte {
	doc := benchmarkSpec{
		Command:    []string{"bash", "e2ebench/run.sh"},
		Paths:      []string{"e2ebench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // static data; cannot fail
	}
	return buf.Bytes()
}

// layerMap is the layer -> end-to-end prediction table recorded beside
// the baseline.
func layerMap() map[string][]string {
	out := map[string][]string{}
	for _, l := range perLayer {
		if len(l.Moves) > 0 {
			out[l.Name] = l.Moves
		}
	}
	return out
}

// unitOf returns a metric's unit from the definitions.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
