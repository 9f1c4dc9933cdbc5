package studyd

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rldecide/internal/core"
	"rldecide/internal/obs"
	"rldecide/internal/param"
)

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	Event string
	Data  string
}

// readSSE parses frames off an event stream until the server closes it or
// limit frames arrive (limit <= 0 means read to EOF).
func readSSE(t *testing.T, r *bufio.Reader, limit int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for limit <= 0 || len(frames) < limit {
		line, err := r.ReadString('\n')
		if err != nil {
			return frames
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.Event != "" || cur.Data != "" {
				frames = append(frames, cur)
				cur = sseFrame{}
			}
		}
	}
	return frames
}

// TestEventsSSEFinishAfterSummary is the regression test for the stream
// that ended on "running" then EOF: the study finishes after the opening
// summary is written but before the handler decides whether the study is
// over. The stream must still deliver every trial's events, study_done
// and the closing summary, which are all in the subscription's buffer.
func TestEventsSSEFinishAfterSummary(t *testing.T) {
	release := make(chan struct{})
	RegisterObjective("sse-gate-late", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			select {
			case <-release:
			case <-rec.Context().Done():
				return rec.Context().Err()
			}
			rec.Report(metrics[0].Name, a.Value("x").Float())
			rec.Report(metrics[1].Name, a.Value("y").Float())
			return nil
		}, nil
	})
	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.sseOpened = func(m *ManagedStudy) {
		close(release)
		<-m.Done()
	}
	d.Start()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer d.Shutdown(context.Background())

	sp := baseSpec("sse-gate-late")
	sp.Budget = 3
	m, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/studies/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSE(t, bufio.NewReader(resp.Body), 0)
	counts := map[string]int{}
	for _, f := range frames {
		counts[f.Event]++
	}
	if len(frames) < 3 || frames[0].Event != "summary" || counts[obs.KindTrialDone] != sp.Budget ||
		counts[obs.KindStudyDone] != 1 || frames[len(frames)-1].Event != "summary" {
		t.Fatalf("stream truncated: counts %v, frames %+v", counts, frames)
	}
	var sum Summary
	if err := json.Unmarshal([]byte(frames[len(frames)-1].Data), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Status != StatusDone || sum.Finished != sp.Budget {
		t.Fatalf("final summary: %+v", sum)
	}
}

// TestEventsSSEStream drives the push endpoint end to end: subscribe while
// the study is gated, release it, and require the stream to deliver the
// opening summary, per-trial start/done events attributed to this study,
// the study_done event, and a final terminal summary before the server
// closes the stream.
func TestEventsSSEStream(t *testing.T) {
	release := make(chan struct{})
	RegisterObjective("sse-gate", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			select {
			case <-release:
			case <-rec.Context().Done():
				return rec.Context().Err()
			}
			x, y := a.Value("x").Float(), a.Value("y").Float()
			rec.Report(metrics[0].Name, x*x+y*y)
			rec.Report(metrics[1].Name, x+y)
			return nil
		}, nil
	})

	d, err := New(Config{Dir: t.TempDir(), Workers: 2, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	defer d.Shutdown(context.Background())

	sp := baseSpec("sse-gate")
	sp.Budget = 3
	m, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/studies/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	br := bufio.NewReader(resp.Body)
	first := readSSE(t, br, 1)
	if len(first) != 1 || first[0].Event != "summary" {
		t.Fatalf("stream must open with a summary frame, got %+v", first)
	}

	// Unblock the trials; the stream should now carry the whole run and
	// then end on its own.
	close(release)
	frames := readSSE(t, br, 0)
	if len(frames) < 3 {
		t.Fatalf("too few frames after release: %+v", frames)
	}

	counts := map[string]int{}
	for _, f := range frames {
		counts[f.Event]++
		if f.Event == obs.KindTrialStart || f.Event == obs.KindTrialDone || f.Event == obs.KindStudyDone {
			var ev obs.Event
			if err := json.Unmarshal([]byte(f.Data), &ev); err != nil {
				t.Fatalf("frame %q is not an event: %v", f.Data, err)
			}
			if ev.Study != m.ID {
				t.Fatalf("event leaked from another study: %+v", ev)
			}
		}
	}
	if counts[obs.KindTrialDone] != sp.Budget {
		t.Fatalf("trial_done frames: %d, want %d (counts %v)", counts[obs.KindTrialDone], sp.Budget, counts)
	}
	if counts[obs.KindStudyDone] != 1 {
		t.Fatalf("study_done frames: %d (counts %v)", counts[obs.KindStudyDone], counts)
	}

	// Last two frames: study_done, then the authoritative final summary.
	last := frames[len(frames)-1]
	if last.Event != "summary" {
		t.Fatalf("stream must end with a summary frame, got %q", last.Event)
	}
	var sum Summary
	if err := json.Unmarshal([]byte(last.Data), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Status != StatusDone || sum.Finished != sp.Budget {
		t.Fatalf("final summary: %+v", sum)
	}
	if frames[len(frames)-2].Event != obs.KindStudyDone {
		t.Fatalf("penultimate frame %q, want %s", frames[len(frames)-2].Event, obs.KindStudyDone)
	}

	// A stream opened on a finished study closes after one terminal
	// summary rather than holding an idle connection.
	resp2, err := http.Get(ts.URL + "/studies/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	again := readSSE(t, bufio.NewReader(resp2.Body), 0)
	if len(again) != 1 || again[0].Event != "summary" {
		t.Fatalf("terminal-study stream: %+v", again)
	}
	var termSum Summary
	if err := json.Unmarshal([]byte(again[0].Data), &termSum); err != nil {
		t.Fatal(err)
	}
	if termSum.Status != StatusDone {
		t.Fatalf("terminal summary status %s", termSum.Status)
	}
}

// TestEventsSSEDrainOnShutdown pins the graceful-drain contract: a client
// streaming a study that gets interrupted by daemon shutdown sees its
// stream END (bus closed after the runners drained) instead of hanging.
func TestEventsSSEDrainOnShutdown(t *testing.T) {
	RegisterObjective("sse-block", func(spec Spec, metrics []core.Metric) (core.Objective, error) {
		return func(a param.Assignment, seed uint64, rec *core.Recorder) error {
			<-rec.Context().Done() // blocks until shutdown cancels the run
			return rec.Context().Err()
		}, nil
	})

	d, err := New(Config{Dir: t.TempDir(), Workers: 1, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	sp := baseSpec("sse-block")
	sp.Budget = 2
	m, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, StatusRunning)

	resp, err := http.Get(ts.URL + "/studies/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if first := readSSE(t, br, 1); len(first) != 1 || first[0].Event != "summary" {
		t.Fatalf("opening frame: %+v", first)
	}

	done := make(chan error, 1)
	go func() { done <- d.Shutdown(context.Background()) }()

	// The stream must terminate — readSSE returns on EOF — not hang past
	// the test deadline.
	readSSE(t, br, 0)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// After shutdown the bus refuses new subscribers.
	d2, err := http.Get(ts.URL + "/studies/" + m.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Body.Close()
	if d2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown subscribe: %d", d2.StatusCode)
	}
}
