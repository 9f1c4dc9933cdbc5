package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"rldecide/internal/studyd"
)

// The workload generators. Every input the benchmark hands the program is
// a pure function of the run's seed and the input's index, so a seed
// names one exact workload and runs of different lengths share a prefix.

// inputRand is the generator stream for input i of the given kind.
func inputRand(seed uint64, kind string, i int) *rand.Rand {
	k := uint64(0)
	for _, c := range kind {
		k = k*131 + uint64(c)
	}
	return rand.New(rand.NewPCG(seed^k, uint64(i)))
}

// sphereSpec is study i of the fleet-sphere workload: a 2-parameter sphere
// over a random box, explored by Random Search with parallelism 2. The
// objective costs microseconds, so every trial is control-plane work.
func sphereSpec(seed uint64, i int) studyd.Spec {
	r := inputRand(seed, "sphere", i)
	lo := -1 - 4*r.Float64()
	hi := 1 + 4*r.Float64()
	return studyd.Spec{
		Name: fmt.Sprintf("sphere-%d", i),
		Params: []studyd.ParamSpec{
			{Name: "x", Type: "floatrange", Lo: lo, Hi: hi},
			{Name: "y", Type: "floatrange", Lo: lo, Hi: hi},
		},
		Explorer:    studyd.ExplorerSpec{Type: "random"},
		Metrics:     []studyd.MetricSpec{{Name: "f", Direction: "min"}, {Name: "cost", Direction: "min"}},
		Objective:   "sphere",
		Budget:      30 + r.IntN(21),
		Parallelism: 2,
		Seed:        r.Uint64(),
	}
}

// ppoSpec is study i of the fleet-ppo-read workload: a small real PPO
// search on Steer1D (learning rate, width, a few hundred env steps).
func ppoSpec(seed uint64, i int) studyd.Spec {
	r := inputRand(seed, "ppo", i)
	return studyd.Spec{
		Name: fmt.Sprintf("ppo-%d", i),
		Params: []studyd.ParamSpec{
			{Name: "lr", Type: "floatrange", Lo: 1e-3, Hi: 1e-2, Log: true},
			{Name: "hidden", Type: "intset", Ints: []int{8, 16}},
			{Name: "steps", Type: "intset", Ints: []int{256, 512}},
		},
		Explorer:    studyd.ExplorerSpec{Type: "random"},
		Metrics:     []studyd.MetricSpec{{Name: "return", Direction: "max"}, {Name: "compute", Direction: "min"}},
		Objective:   "steer-ppo",
		Budget:      4 + r.IntN(5),
		Parallelism: 2,
		Seed:        r.Uint64(),
	}
}

// Dashboard read kinds, one per study read endpoint.
const (
	readSummary = iota
	readFront
	readTrials
	numReadKinds
)

var readPaths = [numReadKinds]string{"", "/front", "/trials"}

// readOp is one scheduled dashboard read: due is its offset from the
// start of the open loop.
type readOp struct {
	Due  time.Duration
	Kind int
}

// readSchedule is the open-loop dashboard schedule: n reads at a fixed
// rate per second, each picking an endpoint from the seed.
func readSchedule(seed uint64, rate float64, n int) []readOp {
	r := inputRand(seed, "reads", 0)
	period := time.Duration(float64(time.Second) / rate)
	out := make([]readOp, n)
	for i := range out {
		out[i] = readOp{Due: time.Duration(i) * period, Kind: r.IntN(numReadKinds)}
	}
	return out
}
