package sac

import (
	"math"
	"testing"

	"rldecide/internal/mathx"
	"rldecide/internal/rl"
	"rldecide/internal/tensor"
)

// newFilledSAC returns a learner at the 10→64→64→3 policy shape with a
// replay buffer full of seeded random transitions, so update can be
// driven directly.
func newFilledSAC(seed uint64) *SAC {
	const obsDim, nActions = 10, 3
	s := New(Config{Batch: 32, BufferSize: 256}, obsDim, nActions, seed)
	rng := mathx.NewRand(seed + 1)
	for i := 0; i < 256; i++ {
		tr := rl.Transition{
			Obs:     make([]float64, obsDim),
			NextObs: make([]float64, obsDim),
			Action:  rng.IntN(nActions),
			Reward:  rng.NormFloat64(),
			Done:    rng.IntN(10) == 0,
		}
		for j := range tr.Obs {
			tr.Obs[j] = rng.NormFloat64()
			tr.NextObs[j] = rng.NormFloat64()
		}
		s.Buffer.Add(tr)
	}
	return s
}

// TestUpdateBitIdenticalAcrossWidths runs 50 updates with the pool at
// width 1 (every network in sequence) and width 2 (the update's networks
// as concurrent tasks): weights, temperature and Stats must agree bit for
// bit.
func TestUpdateBitIdenticalAcrossWidths(t *testing.T) {
	defer tensor.SetParallelism(0)
	type result struct {
		stats   []Stats
		weights [][]float64
		alpha   float64
	}
	run := func(width int) result {
		tensor.SetParallelism(width)
		s := newFilledSAC(7)
		var r result
		for i := 0; i < 50; i++ {
			r.stats = append(r.stats, s.update())
		}
		r.weights = [][]float64{s.Actor.Weights(), s.Q1.Weights(), s.Q2.Weights(), s.Q1T.Weights(), s.Q2T.Weights()}
		r.alpha = s.logAlpha
		return r
	}
	want, got := run(1), run(2)
	for i := range want.stats {
		if want.stats[i] != got.stats[i] {
			t.Fatalf("update %d: stats at width 2 %+v, width 1 %+v", i, got.stats[i], want.stats[i])
		}
	}
	for n := range want.weights {
		for j := range want.weights[n] {
			if math.Float64bits(want.weights[n][j]) != math.Float64bits(got.weights[n][j]) {
				t.Fatalf("network %d weight %d: width 2 %x, width 1 %x", n, j, got.weights[n][j], want.weights[n][j])
			}
		}
	}
	if want.alpha != got.alpha {
		t.Fatalf("log-alpha: width 2 %x, width 1 %x", got.alpha, want.alpha)
	}
}

// TestUpdateAllocs gates steady-state allocations of one gradient step at
// pool widths 1 and 2 (set explicitly: AllocsPerRun pins GOMAXPROCS to 1,
// which would make the default width 1). The scratch buffers and the
// per-learner task closures are bound on the first update and reused
// after it.
func TestUpdateAllocs(t *testing.T) {
	defer tensor.SetParallelism(0)
	for _, width := range []int{1, 2} {
		tensor.SetParallelism(width)
		s := newFilledSAC(3)
		s.update()
		if allocs := testing.AllocsPerRun(50, func() { s.update() }); allocs != 0 {
			t.Errorf("width %d: SAC update allocates %v times per step, want 0", width, allocs)
		}
	}
}

// BenchmarkUpdate times one gradient step at the policy shape; run with
// -cpu 1,2 to compare the serial and the task-parallel update.
func BenchmarkUpdate(b *testing.B) {
	s := newFilledSAC(3)
	s.update()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.update()
	}
}
