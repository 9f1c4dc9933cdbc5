package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU-share fold. runtime/pprof writes a gzipped profile.proto; the
// module has no dependencies, so this file decodes the few fields the fold
// needs (samples, locations, functions, strings) with a minimal protobuf
// reader.

// cpuBuckets are the fold's buckets, named after the repo's modules. Every
// sample lands in exactly one of them.
var cpuBuckets = []string{"tensor", "nn", "sac", "ppo", "airdrop", "ode", "core", "runtime", "other"}

// bucketOf maps a module package path to its bucket ("" for packages
// outside the module, which the fold attributes to their caller).
func bucketOf(pkg string) string {
	switch pkg {
	case "rldecide/internal/tensor":
		return "tensor"
	case "rldecide/internal/nn":
		return "nn"
	case "rldecide/internal/rl/sac":
		return "sac"
	case "rldecide/internal/rl/ppo":
		return "ppo"
	case "rldecide/internal/airdrop":
		return "airdrop"
	case "rldecide/internal/ode":
		return "ode"
	case "rldecide/internal/core", "rldecide/internal/journal":
		return "core"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if pkg == "rldecide" || strings.HasPrefix(pkg, "rldecide/") {
		return "other"
	}
	return ""
}

// packageOf returns the import path of a symbol name as pprof prints it,
// e.g. "rldecide/internal/rl/sac.(*Agent).update" -> "rldecide/internal/rl/sac".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldStack returns the bucket of one sample's stack (leaf first): the
// leaf's own bucket when the leaf is module or runtime code, otherwise the
// bucket of the nearest module or runtime caller, so a standard-library
// leaf such as math.Tanh is charged to the layer that called it. The walk
// stops at the benchmark's own code (package main): its load generation,
// decoding and checks are "other", not a layer of the program. Goroutine
// roots sit under every stack and own nothing unless they are the leaf, so
// a stack of standard-library frames alone (an HTTP connection loop) is
// "other" too.
func foldStack(frames []string) string {
	for i, fn := range frames {
		pkg := packageOf(fn)
		if pkg == "main" {
			return "other"
		}
		if i > 0 && goroutineRoots[fn] {
			continue
		}
		if b := bucketOf(pkg); b != "" {
			return b
		}
	}
	return "other"
}

// goroutineRoots are the runtime frames at the bottom of goroutine stacks.
var goroutineRoots = map[string]bool{"runtime.goexit": true, "runtime.main": true}

// profSample is one decoded profile sample: its stack (leaf first) and
// its weight (CPU nanoseconds, or the sample count when absent).
type profSample struct {
	frames []string
	weight int64
}

// foldShares folds samples into per-bucket shares of the total weight.
// The shares sum to 1 whenever the total is positive.
func foldShares(samples []profSample) map[string]float64 {
	sums := map[string]int64{}
	var total int64
	for _, s := range samples {
		sums[foldStack(s.frames)] += s.weight
		total += s.weight
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = float64(sums[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out
}

// parseProfile decodes a gzipped (or raw) profile.proto into samples.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
		nTypes    int
	)
	err := pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// CPU profiles carry (samples, cpu nanoseconds); weigh by the last.
	valueIdx := nTypes - 1
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{weight: 1}
		if valueIdx >= 0 && valueIdx < len(s.values) {
			ps.weight = s.values[valueIdx]
		}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				name := "?"
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
					name = strs[idx]
				}
				ps.frames = append(ps.frames, name)
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks the top-level fields of one protobuf message, calling fn
// with the field number and either its varint value or its bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// pbUints decodes a repeated integer field in either encoding: one varint
// (v, b == nil) or a packed run of varints (b).
func pbUints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			return errProto
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes one base-128 varint, returning its length (0 when b is
// truncated, -1 on overflow).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b); i++ {
		if i == 10 {
			return 0, -1
		}
		c := b[i]
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
