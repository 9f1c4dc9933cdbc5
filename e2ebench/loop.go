package main

import (
	"context"
	"time"

	"rldecide/internal/power"
)

// stopwatch is the benchmark's one time source. Every timing goes through
// the repository's power.Stopwatch seam, the only wall-clock reader its
// determinism lint admits outside the measurement layer.
var stopwatch = power.StartStopwatch()

// elapsed is the time since the process's stopwatch started.
func elapsed() time.Duration { return stopwatch.Elapsed() }

// clock is the open loop's time source: an offset from the loop's start,
// and a way to wait until an offset. Tests substitute a fake.
type clock struct {
	now   func() time.Duration
	sleep func(ctx context.Context, until time.Duration)
}

func wallClock() clock {
	start := elapsed()
	return clock{
		now: func() time.Duration { return elapsed() - start },
		sleep: func(ctx context.Context, until time.Duration) {
			t := time.NewTimer(until - (elapsed() - start))
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		},
	}
}

// loopStats is what an open loop measured: per-op latency from the op's
// due time, and how late the generator sent each op.
type loopStats struct {
	latMs  []float64
	lateMs []float64
	failed int
}

// openLoop issues ops at their due times until they run out or ctx ends,
// calling do for each (do reports success). Latency is measured from the
// due time, not the send time, so a stall is charged to every op queued
// behind it instead of vanishing from the numbers.
func openLoop(ctx context.Context, ops []readOp, clk clock, do func(readOp) bool) loopStats {
	var st loopStats
	for _, op := range ops {
		if clk.now() < op.Due {
			clk.sleep(ctx, op.Due)
		}
		if ctx.Err() != nil {
			break
		}
		sent := clk.now()
		ok := do(op)
		done := clk.now()
		st.lateMs = append(st.lateMs, ms(sent-op.Due))
		st.latMs = append(st.latMs, ms(done-op.Due))
		if !ok {
			st.failed++
		}
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
