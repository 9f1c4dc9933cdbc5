package main

import (
	"context"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime drives the open loop on a fake clock with
// reads that take 25ms each, due every 10ms: the reads queue behind one
// another, and each latency must include the queueing (measured from the
// due time), not just the 25ms of its own send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var now time.Duration
	clk := clock{
		now:   func() time.Duration { return now },
		sleep: func(_ context.Context, until time.Duration) { now = until },
	}
	const msD = time.Millisecond
	ops := []readOp{{Due: 0}, {Due: 10 * msD}, {Due: 20 * msD}, {Due: 100 * msD}}
	st := openLoop(context.Background(), ops, clk, func(readOp) bool {
		now += 25 * msD
		return true
	})
	wantLat := []float64{25, 40, 55, 25}
	wantLate := []float64{0, 15, 30, 0}
	for i := range ops {
		if st.latMs[i] != wantLat[i] || st.lateMs[i] != wantLate[i] {
			t.Fatalf("op %d: latency %vms late %vms, want %vms and %vms", i, st.latMs[i], st.lateMs[i], wantLat[i], wantLate[i])
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var now time.Duration
	clk := clock{
		now:   func() time.Duration { return now },
		sleep: func(_ context.Context, until time.Duration) { now = until },
	}
	ops := readSchedule(1, 100, 10)
	n := 0
	st := openLoop(ctx, ops, clk, func(readOp) bool {
		n++
		if n == 3 {
			cancel()
		}
		return n != 2
	})
	if len(st.latMs) != 3 || st.failed != 1 {
		t.Fatalf("ran %d reads with %d failed, want 3 and 1", len(st.latMs), st.failed)
	}
}
