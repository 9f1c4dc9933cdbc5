package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a percentile's rank before
// the benchmark reports it: a tail estimated from fewer points is noise.
const minTail = 10

// rank returns the 1-based nearest-rank index of the p-th percentile
// (0 < p <= 100) of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place). It reports false for an empty sample, and for a tail
// percentile (p > 50) with fewer than minTail samples beyond its rank.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	r := rank(n, p)
	if p > 50 && n-r < minTail {
		return 0, false
	}
	sort.Float64s(xs)
	return xs[r-1], true
}

// median is the nearest-rank 50th percentile (0 for an empty sample).
func median(xs []float64) float64 {
	v, _ := percentile(append([]float64(nil), xs...), 50)
	return v
}

// mean is the arithmetic mean (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveHeapMB forces a garbage collection and returns the live heap it
// marked, in MiB: allocations racing the collection do not count.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// parseExposition sums the samples of each metric family in a Prometheus
// text exposition (labels dropped).
func parseExposition(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}
