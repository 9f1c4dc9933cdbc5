package rldecide_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rldecide/internal/distrib"
	"rldecide/internal/experiments"
	"rldecide/internal/obs"
	"rldecide/internal/tensor"
)

// TestKernelParallelismCampaignDeterminism verifies the replay contract at
// the campaign level across pool widths. One width sets both levels of
// parallelism: how many of a SAC or PPO step's network tasks run at once
// (tensor.Run), and how many row chunks a large product splits into. Each
// network task keeps its serial operation sequence and the row chunks
// keep every element's accumulation order, so a micro training run must
// produce bit-identical metrics with the pool at 1, 2, and GOMAXPROCS
// workers — and at widths above 1 the network tasks must actually have
// run on the pool.
func TestKernelParallelismCampaignDeterminism(t *testing.T) {
	defer tensor.SetParallelism(0)
	scale := experiments.QuickScale()
	scale.TotalSteps = 400
	scale.SACStartSteps = 100
	scale.SACBatch = 16
	scale.EvalEpisodes = 2
	scale.RolloutSteps = 16
	// One PPO and one SAC configuration: the two training loops exercise
	// MulInto, MulTransAInto and MulTransBInto at every policy shape.
	sols := []experiments.Solution{
		{RKOrder: 5, Framework: distrib.StableBaselines, Algo: distrib.PPO, Nodes: 1, Cores: 2},
		{RKOrder: 3, Framework: distrib.RLlib, Algo: distrib.SAC, Nodes: 1, Cores: 2},
	}

	type fingerprint [4]string
	run := func(width int) []fingerprint {
		tensor.SetParallelism(width)
		out := make([]fingerprint, 0, len(sols))
		for _, sol := range sols {
			o, err := experiments.RunSolutionOnce(sol, scale, 7)
			if err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
			out = append(out, fingerprint{
				fmt.Sprintf("%x", o.Reward),
				fmt.Sprintf("%x", o.TimeMinutes),
				fmt.Sprintf("%x", o.PowerKJ),
				fmt.Sprintf("%x", o.Utilization),
			})
		}
		return out
	}

	widths := []int{1, 2, runtime.GOMAXPROCS(0)}
	base := run(widths[0])
	for _, w := range widths[1:] {
		tasksBefore := poolTasks(t)
		got := run(w)
		if poolTasks(t) == tasksBefore {
			t.Errorf("pool width %d: no network task ran on the pool", w)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("solution %d: pool width %d diverged from width 1:\n  got  %v\n  want %v",
					i, w, got[i], base[i])
			}
		}
	}
}

// poolTasks reads the tensor pool's task counter off the default metrics
// registry.
func poolTasks(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "rldecide_tensor_pool_tasks_total "); ok {
			return v
		}
	}
	t.Fatal("rldecide_tensor_pool_tasks_total not exported")
	return ""
}
