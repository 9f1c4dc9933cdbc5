package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The kernel worker pool. It serves two levels of parallelism on one set
// of persistent goroutines: Run executes independent tasks (the separate
// networks of a training step), and MulInto and the transposed products
// fan shapes above parallelThreshold out in row chunks. Neither spawns
// goroutines per call: goroutine creation on the hot path costs more than
// the work it parallelizes, and an unbounded spawn rate is exactly what
// the go-spawn lint rule forbids in kernel code.
//
// Determinism contract: work is partitioned into fixed, contiguous row
// chunks — chunk boundaries depend only on the shape and the configured
// parallelism, every output element is written by exactly one claimant,
// and each element's additions happen in the same (ascending-k) order as
// the serial kernel. WHICH goroutine executes a chunk is scheduling, not
// arithmetic: chunks are claimed off an atomic cursor, so a worker that
// finishes early steals the next not-yet-started chunk whole (ownership
// transfer — a chunk is never re-partitioned or run twice). The
// floating-point result is therefore bit-identical for any worker count
// and any steal interleaving, which is what lets the replay contract hold
// with the pool at 1, 2, or GOMAXPROCS workers. Run's tasks are claimed
// whole off the same kind of cursor; each task owns its state, so its
// arithmetic is the same whichever goroutine runs it and whatever runs
// beside it.

// parallelism is the number of chunks a parallel kernel call fans out to,
// and the number of participants a Run uses. 0 means "use
// runtime.GOMAXPROCS(0)".
var parallelism atomic.Int64

// SetParallelism fixes the kernel fan-out width. n <= 0 restores the
// default (GOMAXPROCS at call time). Intended for tests that verify the
// determinism contract across worker counts and for embedders that want to
// reserve cores; safe to call at any time, but not synchronized with
// in-flight kernel calls.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int64(n))
}

// Parallelism reports the effective fan-out width of the next parallel
// kernel call.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// stealRun is one parallel call's shared work descriptor: a kernel's row
// fan-out (fn over fixed row chunks) or a Run's task list (one chunk per
// task). The chunk grid is fixed up front — for rows a pure function of
// the row count and Parallelism(), for tasks the task count; cursor is the
// index of the next unclaimed chunk. Participants — the caller plus every
// pool worker that picks the run off the task channel — loop claiming
// chunks until the cursor passes nchunks.
//
// Descriptors are recycled through runFree so a steady-state call does not
// allocate. An invitation can sit in the channel after its run completed,
// so the caller does not own the descriptor alone: refs counts the caller
// plus every invitation sent, and whoever drops the last reference
// recycles it.
type stealRun struct {
	fn      func(lo, hi int)
	tasks   []func()
	rows    int
	chunk   int
	nchunks int64
	cursor  atomic.Int64
	refs    atomic.Int32
	wg      sync.WaitGroup
}

// participate claims and executes whole chunks until none remain. Every
// chunk after a participant's first was notionally another participant's
// share — count it as stolen. The claim is the ownership transfer: the
// atomic add hands the chunk to exactly one goroutine, which runs it over
// the chunk's fixed [lo,hi) bounds (or runs the chunk's task).
func (r *stealRun) participate() {
	claimed := 0
	for {
		c := r.cursor.Add(1) - 1
		if c >= r.nchunks {
			break
		}
		if r.tasks != nil {
			r.tasks[c]()
		} else {
			lo := int(c) * r.chunk
			r.fn(lo, min(lo+r.chunk, r.rows))
		}
		r.wg.Done()
		claimed++
	}
	if claimed > 1 {
		metricStolenChunks.Add(uint64(claimed - 1))
	}
}

// execute runs the prepared grid: it sends up to invites non-blocking
// invitations, participates until the cursor is exhausted, waits for the
// chunks helpers claimed, and drops the caller's reference. A dropped
// invitation (full channel) is always safe — the caller claims every chunk
// no helper takes. Blocking instead could deadlock: a kernel called from
// inside a task runs on a pool worker, and once every participant waits
// on a full channel nobody drains it.
func (r *stealRun) execute(invites int) {
	r.cursor.Store(0)
	r.refs.Store(1)
	r.wg.Add(int(r.nchunks))
invite:
	for i := 0; i < invites; i++ {
		r.refs.Add(1)
		select {
		case poolTasks <- r:
		default:
			r.refs.Add(-1) // queue full: the caller claims what a helper would have
			break invite
		}
	}
	r.participate()
	r.wg.Wait()
	// Every chunk has run, and a helper still on its way finds the cursor
	// exhausted without reading fn or tasks: drop them now, so a queued
	// invitation does not keep the caller's closures (and the learner
	// they capture) reachable.
	r.fn, r.tasks = nil, nil
	r.release()
}

// release drops one reference; the last holder recycles the descriptor.
func (r *stealRun) release() {
	if r.refs.Add(-1) != 0 {
		return
	}
	select {
	case runFree <- r:
	default:
	}
}

func acquireRun() *stealRun {
	select {
	case r := <-runFree:
		return r
	default:
		return new(stealRun)
	}
}

var (
	poolOnce    sync.Once
	poolTasks   chan *stealRun
	runFree     chan *stealRun
	poolWorkers int
)

// startPool lazily starts the persistent workers. The pool is sized to the
// machine (GOMAXPROCS at first use); SetParallelism only controls the
// chunk grid and the number of invitations, so idle workers cost nothing
// but a blocked goroutine.
func startPool() {
	poolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n < 1 {
			n = 1
		}
		poolWorkers = n
		poolTasks = make(chan *stealRun, 4*n)
		// Room for every descriptor in circulation — one per queued
		// invitation (at most 4n) plus the runs in progress — so the
		// steady state recycles instead of allocating.
		runFree = make(chan *stealRun, 16*n)
		for i := 0; i < n; i++ {
			//lint:ignore go-spawn the pool's own persistent workers are the one sanctioned spawn site for kernel parallelism
			go poolWorker(poolTasks)
		}
	})
}

func poolWorker(tasks <-chan *stealRun) {
	for r := range tasks {
		r.participate()
		r.release()
	}
}

// parallelRows splits [0, rows) into fixed contiguous chunks and runs fn
// over them. The chunk grid depends only on rows and Parallelism(); the
// caller and up to nchunks-1 pool workers then race to claim chunks from
// the shared cursor, so a participant stalled behind another run's kernel
// never strands its share — someone else steals the whole chunk. With
// parallelism 1 (or a single chunk) fn runs inline: no channel traffic,
// no synchronization.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := min(Parallelism(), rows)
	if workers < 2 {
		metricSerialCalls.Inc()
		fn(0, rows)
		return
	}
	startPool()
	chunk := (rows + workers - 1) / workers
	nchunks := (rows + chunk - 1) / chunk
	r := acquireRun()
	r.fn, r.rows, r.chunk, r.nchunks = fn, rows, chunk, int64(nchunks)
	// Invite at most nchunks-1 helpers (the caller is a participant too)
	// and no more than the pool has workers — extra invitations would only
	// find an exhausted cursor.
	r.execute(min(nchunks-1, poolWorkers))
	metricPoolChunks.Add(uint64(nchunks))
}

// Run executes independent tasks concurrently on the kernel pool and
// returns when all have finished. It is the coarse level of parallelism:
// the training loops hand it whole networks' work (a forward pass, a
// critic's forward-backward-Adam step), which outweighs any single
// policy-sized product and needs one hand-off per network instead of one
// per GEMM. Tasks are claimed whole, in index order, off the same cursor
// the row fan-out uses; the caller always participates, and at most
// Parallelism()-1 pool workers help, so SetParallelism(1) runs the tasks
// inline, in order.
//
// Tasks must not touch each other's state; then which goroutine runs a
// task is scheduling, not arithmetic, and every result is bit-identical to
// the serial order. A task may itself call the parallel kernels or Run:
// invitations never block, so nesting cannot deadlock. Run does not
// allocate when the caller binds its task slice once and reuses it.
func Run(tasks ...func()) {
	workers := min(Parallelism(), len(tasks))
	if workers < 2 {
		for _, t := range tasks {
			t()
		}
		return
	}
	startPool()
	r := acquireRun()
	r.tasks, r.nchunks = tasks, int64(len(tasks))
	r.execute(min(workers-1, poolWorkers))
	metricPoolTasks.Add(uint64(len(tasks)))
}
