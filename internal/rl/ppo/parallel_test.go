package ppo

import (
	"math"
	"testing"

	"rldecide/internal/mathx"
	"rldecide/internal/tensor"
)

// minibatchFixture is a seeded synthetic rollout, already flattened the
// way Update hands it to updateMinibatch.
type minibatchFixture struct {
	obs              [][]float64
	acts             []int
	logp, adv, ret   []float64
	batches          [][]int
	obsDim, nActions int
}

func newMinibatchFixture(seed uint64) *minibatchFixture {
	const n, mb = 256, 64
	f := &minibatchFixture{obsDim: 10, nActions: 3}
	rng := mathx.NewRand(seed)
	for i := 0; i < n; i++ {
		o := make([]float64, f.obsDim)
		for j := range o {
			o[j] = rng.NormFloat64()
		}
		f.obs = append(f.obs, o)
		f.acts = append(f.acts, rng.IntN(f.nActions))
		f.logp = append(f.logp, math.Log(1/float64(f.nActions))+0.1*rng.NormFloat64())
		f.adv = append(f.adv, rng.NormFloat64())
		f.ret = append(f.ret, rng.NormFloat64())
	}
	for i := 0; i < 50; i++ {
		f.batches = append(f.batches, rng.Perm(n)[:mb])
	}
	return f
}

// TestMinibatchBitIdenticalAcrossWidths runs 50 minibatch steps with the
// pool at width 1 (actor then critic) and width 2 (actor and critic as
// concurrent tasks): weights and Stats must agree bit for bit.
func TestMinibatchBitIdenticalAcrossWidths(t *testing.T) {
	defer tensor.SetParallelism(0)
	f := newMinibatchFixture(5)
	run := func(width int) ([]Stats, []float64) {
		tensor.SetParallelism(width)
		p := New(Config{Minibatch: 64}, f.obsDim, f.nActions, 9)
		var stats []Stats
		for _, b := range f.batches {
			stats = append(stats, p.updateMinibatch(f.obs, f.acts, f.logp, f.adv, f.ret, b))
		}
		return stats, p.Weights()
	}
	wantStats, wantW := run(1)
	gotStats, gotW := run(2)
	for i := range wantStats {
		if wantStats[i] != gotStats[i] {
			t.Fatalf("minibatch %d: stats at width 2 %+v, width 1 %+v", i, gotStats[i], wantStats[i])
		}
	}
	for j := range wantW {
		if math.Float64bits(wantW[j]) != math.Float64bits(gotW[j]) {
			t.Fatalf("weight %d: width 2 %x, width 1 %x", j, gotW[j], wantW[j])
		}
	}
}

// TestContinuousMinibatchBitIdenticalAcrossWidths is the same check for
// the Gaussian-policy learner.
func TestContinuousMinibatchBitIdenticalAcrossWidths(t *testing.T) {
	defer tensor.SetParallelism(0)
	f := newMinibatchFixture(6)
	const actDim = 2
	rng := mathx.NewRand(8)
	roll := &ContRollout{}
	for i, o := range f.obs {
		act := []float64{rng.NormFloat64(), rng.NormFloat64()}
		roll.Steps = append(roll.Steps, ContStep{Obs: o, Act: act, LogP: f.logp[i] - 1})
	}
	run := func(width int) ([]Stats, []float64) {
		tensor.SetParallelism(width)
		p := NewContinuous(Config{Minibatch: 64}, f.obsDim, actDim, 9)
		var stats []Stats
		for _, b := range f.batches {
			stats = append(stats, p.updateMinibatch(roll, f.adv, f.ret, b))
		}
		w := append(p.Actor.Weights(), p.Critic.Weights()...)
		return stats, append(w, p.LogStd...)
	}
	wantStats, wantW := run(1)
	gotStats, gotW := run(2)
	for i := range wantStats {
		if wantStats[i] != gotStats[i] {
			t.Fatalf("minibatch %d: stats at width 2 %+v, width 1 %+v", i, gotStats[i], wantStats[i])
		}
	}
	for j := range wantW {
		if math.Float64bits(wantW[j]) != math.Float64bits(gotW[j]) {
			t.Fatalf("weight %d: width 2 %x, width 1 %x", j, gotW[j], wantW[j])
		}
	}
}

// TestMinibatchAllocs gates steady-state allocations of one minibatch
// step at pool widths 1 and 2 (set explicitly: AllocsPerRun pins
// GOMAXPROCS to 1, which would make the default width 1). Scratch and the
// per-learner task closures are bound on the first step and reused after
// it.
func TestMinibatchAllocs(t *testing.T) {
	defer tensor.SetParallelism(0)
	f := newMinibatchFixture(4)
	b := f.batches[0]
	for _, width := range []int{1, 2} {
		tensor.SetParallelism(width)
		p := New(Config{Minibatch: 64}, f.obsDim, f.nActions, 2)
		p.updateMinibatch(f.obs, f.acts, f.logp, f.adv, f.ret, b)
		if allocs := testing.AllocsPerRun(50, func() {
			p.updateMinibatch(f.obs, f.acts, f.logp, f.adv, f.ret, b)
		}); allocs != 0 {
			t.Errorf("width %d: PPO minibatch step allocates %v times, want 0", width, allocs)
		}
	}
}
