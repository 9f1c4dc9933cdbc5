package tensor

import "rldecide/internal/obs"

// Kernel pool utilization instruments. Atomic counters only — one add per
// kernel dispatch, zero allocations, never on the per-element path — so
// the zero-alloc and bit-identical kernel contracts are untouched.
var (
	metricPoolChunks = obs.Default.NewCounter("rldecide_tensor_pool_chunks_total",
		"Row chunks dispatched to the kernel worker pool.")
	metricSerialCalls = obs.Default.NewCounter("rldecide_tensor_serial_calls_total",
		"Kernel calls that ran serially (width 1 or fewer rows than workers).")
	metricPoolTasks = obs.Default.NewCounter("rldecide_tensor_pool_tasks_total",
		"Tasks run through Run with more than one participant.")
	metricStolenChunks = obs.Default.NewCounter("rldecide_tensor_stolen_chunks_total",
		"Row chunks or tasks claimed by a participant beyond its first (work stealing).")
)

func init() {
	obs.Default.NewGaugeFunc("rldecide_tensor_parallelism",
		"Effective kernel fan-out width of the next parallel call.",
		func() []obs.Sample {
			return []obs.Sample{{Value: float64(Parallelism())}}
		})
}
