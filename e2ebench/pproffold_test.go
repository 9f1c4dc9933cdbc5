package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFoldStackBuckets(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"rldecide/internal/tensor.mulRowsPacked", "rldecide/internal/nn.(*MLP).Forward"}, "tensor"},
		{[]string{"math.Tanh", "rldecide/internal/nn.applyActivation"}, "nn"},
		{[]string{"rldecide/internal/rl/sac.(*Agent).update"}, "sac"},
		{[]string{"rldecide/internal/rl/ppo.(*PPO).Update.func1"}, "ppo"},
		{[]string{"rldecide/internal/airdrop.(*Env).Step"}, "airdrop"},
		{[]string{"rldecide/internal/ode.RK4"}, "ode"},
		{[]string{"rldecide/internal/journal.(*Writer).Append"}, "core"},
		{[]string{"runtime.mallocgc", "rldecide/internal/nn.New"}, "runtime"},
		{[]string{"internal/runtime/atomic.Load"}, "runtime"},
		{[]string{"runtime.goexit"}, "runtime"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"sync.(*Mutex).Lock", "runtime.goexit"}, "other"},
		{[]string{"encoding/json.Marshal", "rldecide/internal/studyd.writeJSON"}, "other"},
		{[]string{"net/http.(*conn).serve", "runtime.goexit"}, "other"},
		// The benchmark's own work is not a layer of the program.
		{[]string{"encoding/json.(*decodeState).object", "main.submit", "main.closedClient.run", "runtime.goexit"}, "other"},
		{[]string{"bufio.(*Scanner).Scan", "main.awaitSSE", "runtime.goexit"}, "other"},
		{[]string{"main.getJSON", "main.openLoop", "runtime.goexit"}, "other"},
		// ...but the program's code it calls is.
		{[]string{"math.Sqrt", "rldecide/internal/core.(*Study).Run", "main.runCampaign", "runtime.main"}, "core"},
		{[]string{"runtime.mallocgc", "main.submit"}, "runtime"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := foldStack(c.frames); got != c.want {
			t.Errorf("foldStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestFoldSharesPartition checks the fold's contract on a real CPU
// profile: every sample lands in exactly one bucket (the bucket weights
// add up to the profile's total weight) and the shares sum to 1.
func TestFoldSharesPartition(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	sink = x
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profile caught no samples")
	}
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	var total int64
	weights := map[string]int64{}
	for _, s := range samples {
		if len(s.frames) == 0 || s.weight <= 0 {
			t.Fatalf("sample decoded without frames or weight: %+v", s)
		}
		b := foldStack(s.frames)
		if !known[b] {
			t.Fatalf("stack %v folded into unknown bucket %q", s.frames, b)
		}
		weights[b] += s.weight
		total += s.weight
	}
	shares := foldShares(samples)
	if len(shares) != len(cpuBuckets) {
		t.Fatalf("fold reported %d buckets, want %d", len(shares), len(cpuBuckets))
	}
	sum := 0.0
	for b, share := range shares {
		if want := float64(weights[b]) / float64(total); math.Abs(share-want) > 1e-12 {
			t.Errorf("bucket %s share %v, want %v", b, share, want)
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

var sink float64

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x0a, 0xff}); err == nil {
		t.Fatal("truncated protobuf parsed without error")
	}
}
