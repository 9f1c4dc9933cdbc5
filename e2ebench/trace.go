package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, timed from its own
// side of the boundary. Parent names the layer span that caused it (the
// call structure is fixed by the benchmark, so a name is enough); Trace
// groups the spans of one study or campaign.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Trace   string  `json:"trace,omitempty"`
	StartMs float64 `json:"start_ms"`
	DurMs   float64 `json:"dur_ms"`
	Status  int     `json:"status,omitempty"`
}

// recorder keeps the traced run's spans in memory until the run ends. A
// nil *recorder is the untraced run: every method is a no-op, so the
// untraced path carries no timing code beyond a nil check.
type recorder struct {
	origin time.Duration

	mu sync.Mutex
	// guarded-by: mu
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: elapsed()} }

// record stores a finished span that started at t0 (an elapsed() reading)
// and ends now.
func (r *recorder) record(name, parent, trace string, t0 time.Duration, status int) {
	if r == nil {
		return
	}
	sp := span{
		Name:    name,
		Parent:  parent,
		Trace:   trace,
		StartMs: ms(t0 - r.origin),
		DurMs:   ms(elapsed() - t0),
		Status:  status,
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// durations returns the durations (ms) of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, sp := range r.spans {
		if sp.Name == name {
			out = append(out, sp.DurMs)
		}
	}
	return out
}

// count returns how many spans have the given name and, when status is
// non-zero, that status.
func (r *recorder) count(name string, status int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, sp := range r.spans {
		if sp.Name == name && (status == 0 || sp.Status == status) {
			n++
		}
	}
	return n
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			r.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
