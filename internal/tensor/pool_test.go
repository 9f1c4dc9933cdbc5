package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func randomMat(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if i%17 == 0 {
			m.Data[i] = 0 // exercise the zero-skip branches
		}
	}
	return m
}

// TestKernelParallelismDeterminism is the kernel half of the replay
// contract: the parallel products must be bit-identical at every worker
// count, for shapes on both sides of parallelThreshold and blockThreshold.
func TestKernelParallelismDeterminism(t *testing.T) {
	defer SetParallelism(0)
	shapes := []struct{ m, n, p int }{
		{3, 4, 5},      // tiny, below every threshold
		{256, 64, 64},  // at parallelThreshold, below blockThreshold
		{40, 300, 300}, // above both; ragged tile edges
	}
	widths := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, sh := range shapes {
		rng := rand.New(rand.NewPCG(11, 17))
		a := randomMat(rng, sh.m, sh.n)
		b := randomMat(rng, sh.n, sh.p)
		bt := randomMat(rng, sh.p, sh.n)
		at := randomMat(rng, sh.n, sh.m)

		type out struct{ mul, mta, mtb *Mat }
		ref := out{}
		for wi, w := range widths {
			SetParallelism(w)
			got := out{mul: New(sh.m, sh.p), mta: New(sh.m, sh.p), mtb: New(sh.m, sh.p)}
			MulInto(got.mul, a, b)
			MulTransAInto(got.mta, at, b)
			MulTransBInto(got.mtb, a, bt)
			if wi == 0 {
				ref = got
				continue
			}
			for name, pair := range map[string][2]*Mat{
				"MulInto":       {ref.mul, got.mul},
				"MulTransAInto": {ref.mta, got.mta},
				"MulTransBInto": {ref.mtb, got.mtb},
			} {
				for i := range pair[0].Data {
					if pair[0].Data[i] != pair[1].Data[i] {
						t.Fatalf("%s shape %dx%dx%d: element %d differs between parallelism 1 and %d: %x vs %x",
							name, sh.m, sh.n, sh.p, i, w, pair[0].Data[i], pair[1].Data[i])
					}
				}
			}
		}
	}
}

// TestBlockedMulMatchesPlain checks the tiled kernel against the plain ikj
// kernel bit-for-bit on ragged shapes that don't divide the tile sizes.
func TestBlockedMulMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for _, sh := range []struct{ m, n, p int }{
		{7, 301, 259}, {3, mulKC, mulJC}, {5, mulKC + 1, mulJC + 1}, {2, 513, 130},
	} {
		a := randomMat(rng, sh.m, sh.n)
		b := randomMat(rng, sh.n, sh.p)
		plain := New(sh.m, sh.p)
		blocked := New(sh.m, sh.p)
		mulRowsPlain(plain, a, b, 0, sh.m)
		mulRowsBlocked(blocked, a, b, 0, sh.m)
		for i := range plain.Data {
			if plain.Data[i] != blocked.Data[i] {
				t.Fatalf("shape %dx%dx%d: blocked kernel diverges at element %d: %x vs %x",
					sh.m, sh.n, sh.p, i, plain.Data[i], blocked.Data[i])
			}
		}
	}
}

// TestMulTransARowsMatchesSerial pins the reordered (i-outer) gradient
// kernel to the serial (k-outer) one bit-for-bit.
func TestMulTransARowsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2))
	a := randomMat(rng, 97, 23) // below threshold: serial k-outer path
	b := randomMat(rng, 97, 31)
	serial := New(23, 31)
	MulTransAInto(serial, a, b)
	reordered := New(23, 31)
	mulTransARows(reordered, a, b, 0, 23)
	for i := range serial.Data {
		if serial.Data[i] != reordered.Data[i] {
			t.Fatalf("element %d differs: %x vs %x", i, serial.Data[i], reordered.Data[i])
		}
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(-5)
	if got := Parallelism(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Parallelism() = %d, want GOMAXPROCS default", got)
	}
}

func TestParallelRowsCoversAllRows(t *testing.T) {
	defer SetParallelism(0)
	for _, w := range []int{1, 2, 3, 7, 64} {
		SetParallelism(w)
		for _, rows := range []int{1, 2, 3, 15, 64, 65} {
			hit := make([]int32, rows)
			parallelRows(rows, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hit[i]++
				}
			})
			for i, h := range hit {
				if h != 1 {
					t.Fatalf("parallelism %d rows %d: row %d covered %d times", w, rows, i, h)
				}
			}
		}
	}
}

func TestRunCoversEveryTaskOnce(t *testing.T) {
	defer SetParallelism(0)
	for _, w := range []int{1, 2, 3, 64} {
		SetParallelism(w)
		for _, n := range []int{0, 1, 2, 3, 7, 64} {
			hits := make([]atomic.Int32, n)
			tasks := make([]func(), n)
			for i := range tasks {
				tasks[i] = func() { hits[i].Add(1) }
			}
			Run(tasks...)
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("parallelism %d tasks %d: task %d ran %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestRunWidthOneRunsInOrder(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	var order []int
	Run(func() { order = append(order, 0) }, func() { order = append(order, 1) }, func() { order = append(order, 2) })
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("width 1 ran tasks in order %v, want [0 1 2]", order)
	}
}

// TestRunNestedKernelsFinish runs more tasks than the pool has workers,
// each calling fanned-out kernels and a nested Run in a tight loop, at a
// width that makes every call invite the whole pool. Invitations pile up
// far past the task channel's capacity; the run must still finish (no
// participant may block on a full channel) and every task's result must
// be bit-identical to the serial run.
func TestRunNestedKernelsFinish(t *testing.T) {
	defer SetParallelism(0)
	startPool()
	ntasks := 4*poolWorkers + 3
	rng := rand.New(rand.NewPCG(8, 13))
	b := randomMat(rng, 64, 64)
	bt := randomMat(rng, 64, 64)
	for i := range b.Data {
		b.Data[i] /= 16
		bt.Data[i] /= 16
	}
	inputs := make([]*Mat, ntasks)
	for i := range inputs {
		inputs[i] = randomMat(rng, 256, 64) // 256×64×64 = parallelThreshold: fans out
	}
	compute := func(width int) []*Mat {
		SetParallelism(width)
		out := make([]*Mat, ntasks)
		tasks := make([]func(), ntasks)
		for i := range tasks {
			x := inputs[i].Clone()
			y1, y2 := New(256, 64), New(256, 64)
			out[i] = x
			tasks[i] = func() {
				for iter := 0; iter < 4; iter++ {
					Run(func() { MulInto(y1, x, b) }, func() { MulTransBInto(y2, x, bt) })
					for k := range x.Data {
						x.Data[k] = y1.Data[k] - y2.Data[k]
					}
				}
			}
		}
		done := make(chan struct{})
		go func() {
			Run(tasks...)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("width %d: %d nested tasks did not finish (deadlock)", width, ntasks)
		}
		return out
	}
	want := compute(1)
	for _, w := range []int{2, 64} {
		got := compute(w)
		for i := range want {
			for k := range want[i].Data {
				if math.Float64bits(want[i].Data[k]) != math.Float64bits(got[i].Data[k]) {
					t.Fatalf("width %d task %d element %d: %x, serial %x", w, i, k, got[i].Data[k], want[i].Data[k])
				}
			}
		}
	}
}

// TestRunDropsTasksWhenDone: an invitation can still be queued after its
// run has completed (every worker busy elsewhere). It must not keep the
// run's closures, and the learner they capture, reachable.
func TestRunDropsTasksWhenDone(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(2)
	startPool()
	// Route invitations to a channel no worker reads, so they stay queued.
	saved := poolTasks
	poolTasks = make(chan *stealRun, 1)
	defer func() { poolTasks = saved }()

	for name, call := range map[string]func(){
		"Run":          func() { Run(func() {}, func() {}) },
		"parallelRows": func() { parallelRows(4, func(lo, hi int) {}) },
	} {
		call()
		select {
		case r := <-poolTasks:
			if r.fn != nil || r.tasks != nil {
				t.Errorf("%s: a queued invitation still references the completed run's closures", name)
			}
			r.release()
		default:
			t.Fatalf("%s: no invitation was queued", name)
		}
	}
}

// TestRunAllocs: with the task slice bound once, a steady-state Run does
// not allocate — its descriptor comes off the free list.
func TestRunAllocs(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(2)
	var sink [2]int
	tasks := []func(){func() { sink[0]++ }, func() { sink[1]++ }}
	for i := 0; i < 32; i++ {
		Run(tasks...)
	}
	if allocs := testing.AllocsPerRun(100, func() { Run(tasks...) }); allocs != 0 {
		t.Fatalf("Run allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkMulLarge(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := randomMat(rng, 64, 256)
	y := randomMat(rng, 256, 256)
	dst := New(64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkMulPolicyShape(b *testing.B) {
	// The batch=32, 10→64→64→3 policy shape the PPO update actually runs.
	rng := rand.New(rand.NewPCG(1, 2))
	x := randomMat(rng, 32, 64)
	y := randomMat(rng, 64, 64)
	dst := New(32, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

// BenchmarkFanOut measures one product serially against the same product
// fanned out in row chunks at width 2, across batch sizes and layer
// widths. The smallest shape where fan-out wins sets parallelThreshold.
func BenchmarkFanOut(b *testing.B) {
	defer SetParallelism(0)
	for _, sh := range []struct{ m, n, p int }{
		{32, 64, 64}, {128, 64, 64}, {256, 64, 64}, {64, 128, 128},
		{16, 256, 256}, {32, 256, 256}, {128, 256, 256},
	} {
		rng := rand.New(rand.NewPCG(3, uint64(sh.m)))
		x := randomMat(rng, sh.m, sh.n)
		y := randomMat(rng, sh.n, sh.p)
		dst := New(sh.m, sh.p)
		kernel := func(lo, hi int) { mulRows(dst, x, y, lo, hi) }
		name := fmt.Sprintf("%dx%dx%d", sh.m, sh.n, sh.p)
		b.Run(name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(0, sh.m)
			}
		})
		b.Run(name+"/fanout2", func(b *testing.B) {
			SetParallelism(2)
			for i := 0; i < b.N; i++ {
				parallelRows(sh.m, kernel)
			}
		})
	}
}
