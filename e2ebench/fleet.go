package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rldecide/internal/analysis"
	"rldecide/internal/executor"
	"rldecide/internal/journal"
	"rldecide/internal/obs"
	obspan "rldecide/internal/obs/span"
	"rldecide/internal/pareto"
	"rldecide/internal/shard"
	"rldecide/internal/studyd"
)

// fleetDaemons and fleetWorkers name the fleet's members.
var (
	fleetDaemons = []string{"alpha", "beta"}
	fleetWorkers = []string{"w1", "w2"}
)

// fleet is an in-process sharded deployment on loopback: a router, two
// named studyd daemons in fleet mode sharing one state directory, and two
// workers registered with both daemons. Total worker slots equal nproc.
type fleet struct {
	dir     string
	url     string // the router's base URL
	servers []*httptest.Server
	daemons []*studyd.Daemon
	router  *shard.Router
	stopReg context.CancelFunc
	regWG   sync.WaitGroup
}

// startFleet builds a fleet in dir and returns once both workers are
// observed registered on both daemons via GET /workers. rec, when
// non-nil, wraps every layer boundary with the benchmark's spans and turns
// on the daemons' own span trees.
func startFleet(ctx context.Context, dir string, rec *recorder) (*fleet, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	quiet := func(string, ...any) {}
	opts := executor.FleetOptions{Logf: quiet}
	if rec != nil {
		opts.Client = &http.Client{Transport: &dispatchTimer{rec: rec, next: http.DefaultTransport}}
	}
	var backends []shard.Backend
	for _, name := range fleetDaemons {
		d, err := studyd.New(studyd.Config{Dir: dir, Name: name, Exec: studyd.ExecFleet,
			Spans: rec != nil, Fleet: opts, Logf: quiet})
		if err != nil {
			f.close()
			return nil, err
		}
		d.Start()
		f.daemons = append(f.daemons, d)
		srv := httptest.NewServer(timeStudyAPI(rec, d.Handler(), "studyd", "shard"))
		f.servers = append(f.servers, srv)
		backends = append(backends, shard.Backend{Name: name, URL: srv.URL})
	}
	rt, err := shard.New(shard.Config{Backends: backends, Logf: quiet})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	rsrv := httptest.NewServer(timeStudyAPI(rec, rt.Handler(), "shard", "client"))
	f.servers = append(f.servers, rsrv)
	f.url = rsrv.URL

	regCtx, stop := context.WithCancel(ctx)
	f.stopReg = stop
	for i, name := range fleetWorkers {
		// Split nproc slots across the workers (at least one each).
		slots := max(1, (runtime.NumCPU()+len(fleetWorkers)-1-i)/len(fleetWorkers))
		eval := studyd.EvaluateRequest
		if rec != nil {
			eval = func(ctx context.Context, req executor.TrialRequest) (executor.TrialResult, error) {
				t0 := elapsed()
				res, err := studyd.EvaluateRequest(ctx, req)
				rec.record("studyd.eval", "executor.worker", req.StudyID, t0, 0)
				return res, err
			}
		}
		w := &executor.Server{Name: name, Eval: eval, Logf: quiet}
		wsrv := httptest.NewServer(timeAll(rec, w.Handler(), "executor.worker", "executor.dispatch"))
		f.servers = append(f.servers, wsrv)
		for _, b := range backends {
			g := &executor.Registrar{Daemon: b.URL, Info: executor.WorkerInfo{Name: name, URL: wsrv.URL, Slots: slots}, Logf: quiet}
			f.regWG.Add(1)
			go func() {
				defer f.regWG.Done()
				_ = g.Run(regCtx) // returns nil on the ctx-driven stop
			}()
		}
	}
	if err := f.awaitWorkers(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// awaitWorkers polls the router's fleet-wide GET /workers until every
// worker is registered on every daemon.
func (f *fleet) awaitWorkers(ctx context.Context) error {
	deadline := elapsed() + 10*time.Second
	for elapsed() < deadline {
		var view struct {
			Fleets []struct {
				Daemon  string `json:"daemon"`
				Workers []struct {
					Name string `json:"name"`
				} `json:"workers"`
			} `json:"fleets"`
		}
		if err := getJSON(ctx, http.DefaultClient, f.url+"/workers", &view); err == nil {
			seen := 0
			for _, d := range view.Fleets {
				seen += len(d.Workers)
			}
			if seen == len(fleetDaemons)*len(fleetWorkers) {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("fleet: workers did not register within 10s")
}

// close stops the fleet: workers deregister, servers close, daemons drain.
func (f *fleet) close() {
	if f.stopReg != nil {
		f.stopReg()
		f.regWG.Wait()
	}
	for _, s := range f.servers {
		s.Close() //lint:ignore err-drop httptest.Server.Close returns nothing
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, d := range f.daemons {
		_ = d.Shutdown(ctx) // a missed drain only delays exit; the run is over
	}
	if f.router != nil {
		_ = f.router.Shutdown(ctx)
	}
}

// timeStudyAPI wraps a router's or daemon's handler so the traced run
// records a span for each study submission (<layer>.submit) and study
// read (<layer>.read) it serves. SSE streams and span fetches are not
// reads a user waits on and pass through unwrapped, keeping the
// http.Flusher the SSE handler needs. rec == nil returns h untouched.
func timeStudyAPI(rec *recorder, h http.Handler, layer, parent string) http.Handler {
	if rec == nil {
		return h
	}
	submit, read := timeAll(rec, h, layer+".submit", parent), timeAll(rec, h, layer+".read", parent)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/studies":
			submit.ServeHTTP(w, r)
		case r.Method == http.MethodGet && isStudyRead(r.URL.Path):
			read.ServeHTTP(w, r)
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// timeAll wraps h so the traced run records one span per request.
func timeAll(rec *recorder, h http.Handler, name, parent string) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := elapsed()
		h.ServeHTTP(sw, r)
		rec.record(name, parent, "", t0, sw.status)
	})
}

// isStudyRead matches GET /studies/{id}, /front and /trials.
func isStudyRead(path string) bool {
	rest, ok := strings.CutPrefix(path, "/studies/")
	if !ok || rest == "" {
		return false
	}
	_, sub, _ := strings.Cut(rest, "/")
	return sub == "" || sub == "front" || sub == "trials"
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// dispatchTimer is the traced fleet's dispatch transport: it times each
// POST /run round trip until the response body is closed, and classifies
// its outcome (428 spec misses, other failures that the fleet retries).
type dispatchTimer struct {
	rec  *recorder
	next http.RoundTripper
}

func (d *dispatchTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/run") {
		return d.next.RoundTrip(req)
	}
	t0 := elapsed()
	resp, err := d.next.RoundTrip(req)
	if err != nil {
		d.rec.record("executor.dispatch", "studyd", "", t0, 599)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d.rec.record("executor.dispatch", "studyd", "", t0, resp.StatusCode)
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// getJSON GETs url and decodes a 2xx JSON body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submit POSTs a spec to the router and returns the study summary.
func submit(ctx context.Context, c *http.Client, base string, spec studyd.Spec) (studyd.Summary, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return studyd.Summary{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/studies", bytes.NewReader(body))
	if err != nil {
		return studyd.Summary{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return studyd.Summary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return studyd.Summary{}, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var sum studyd.Summary
	err = json.NewDecoder(resp.Body).Decode(&sum)
	return sum, err
}

func terminal(s studyd.Status) bool {
	return s == studyd.StatusDone || s == studyd.StatusFailed || s == studyd.StatusInterrupted
}

// newClient is one client connection's HTTP client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// submitted is one study a client ran to a terminal status.
type submitted struct {
	id     string
	index  int // the study's input index (see sphereSpec, ppoSpec)
	spec   studyd.Spec
	status studyd.Status
	ms     float64 // submit -> terminal status observed
}

// clientStats is what one closed-loop client measured.
type clientStats struct {
	studies   []submitted
	readMs    []float64 // poll reads
	attempted int
	// Failed operations by kind.
	submitErrs, readErrs int
	// sseTruncated counts event streams that ended before their terminal
	// frame; the client then polled, so the wait itself succeeded.
	sseTruncated int
	// campaignMs are the wall times of the client's campaigns.
	campaignMs []float64
}

// pollInterval spaces a client's summary polls.
const pollInterval = 2 * time.Millisecond

// awaitPoll polls the study summary until its status is terminal.
func awaitPoll(ctx context.Context, c *http.Client, base, id string, st *clientStats) (studyd.Status, error) {
	for {
		var sum studyd.Summary
		t0 := elapsed()
		err := getJSON(ctx, c, base+"/studies/"+id, &sum)
		st.readMs = append(st.readMs, ms(elapsed()-t0))
		st.attempted++
		if err != nil {
			st.readErrs++
			if ctx.Err() != nil {
				return "", ctx.Err()
			}
		} else if terminal(sum.Status) {
			return sum.Status, nil
		}
		select {
		case <-time.After(pollInterval):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// awaitSSE waits for the study on GET /studies/{id}/events. It reports
// the terminal status from the stream's closing summary frame, or ok =
// false when the stream ended before one arrived.
func awaitSSE(ctx context.Context, c *http.Client, base, id string) (studyd.Status, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/studies/"+id+"/events", nil)
	if err != nil {
		return "", false
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return "", false
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "data: "); ok && event == "summary" {
			var sum studyd.Summary
			if json.Unmarshal([]byte(v), &sum) == nil && terminal(sum.Status) {
				return sum.Status, true
			}
		}
	}
	return "", false
}

// fleetRun is what one timed fleet phase measured.
type fleetRun struct {
	clients []*clientStats
	reads   loopStats // the dashboard's open loop (fleet-ppo-read)
	elapsed time.Duration
	trials  int
	// prefix is what the phase measured when its prefixStudies-th study
	// completed.
	prefix  *prefixSnapshot
	studies []submitted
}

// trialsPerSecond is the trials of every study the phase's clients ran
// over the phase's wall time. The clients finish the study in hand after
// the budget, so the phase ends on whole studies.
func (r fleetRun) trialsPerSecond() float64 {
	return float64(r.trials) / r.elapsed.Seconds()
}

// setupFleet starts the fleet setups times, keeping the last one up, and
// returns it with each set-up's duration.
func setupFleet(ctx context.Context, cfg runConfig, name string, rec *recorder, setups int) (*fleet, []float64, error) {
	var times []float64
	var f *fleet
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		t0 := elapsed()
		var err error
		f, err = startFleet(ctx, filepath.Join(cfg.out, "state-"+name), rec)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, (elapsed() - t0).Seconds())
	}
	return f, times, nil
}

// runPhase runs the workload's clients on f until budget, each finishing
// the study it is waiting on, and collects what they measured.
func runPhase(ctx context.Context, cfg runConfig, workload string, f *fleet, budget time.Duration) fleetRun {
	runCtx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	// Clients finish their current study after the budget; bound that.
	hardCtx, hardCancel := context.WithTimeout(ctx, budget+60*time.Second)
	defer hardCancel()
	var wg sync.WaitGroup
	var run fleetRun
	prefix := &prefixSnapshot{after: prefixStudies[workload]}
	start := elapsed()
	switch workload {
	case "fleet-sphere":
		for c := 0; c < 2; c++ {
			cl := closedClient{base: f.url, first: c, step: 2, campaign: 10, prefix: prefix,
				spec: func(i int) studyd.Spec { return sphereSpec(cfg.seed, i) }}
			st := &clientStats{}
			run.clients = append(run.clients, st)
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl.run(runCtx, hardCtx, st)
			}()
		}
	case "fleet-ppo-read":
		var live atomic.Value
		live.Store("")
		cl := closedClient{base: f.url, step: 1, campaign: 5, sse: true, live: &live, prefix: prefix,
			spec: func(i int) studyd.Spec { return ppoSpec(cfg.seed, i) }}
		st := &clientStats{}
		run.clients = append(run.clients, st)
		wg.Add(2)
		go func() {
			defer wg.Done()
			cl.run(runCtx, hardCtx, st)
		}()
		go func() {
			defer wg.Done()
			c := newClient()
			sched := readSchedule(cfg.seed, dashboardRate, dashboardRate*cfg.seconds)
			run.reads = openLoop(runCtx, sched, wallClock(), func(op readOp) bool {
				id := live.Load().(string)
				if id == "" {
					return true
				}
				return getJSON(hardCtx, c, f.url+"/studies/"+id+readPaths[op.Kind], nil) == nil
			})
		}()
	}
	wg.Wait()
	run.elapsed = elapsed() - start
	for _, st := range run.clients {
		run.studies = append(run.studies, st.studies...)
		for _, s := range st.studies {
			run.trials += s.spec.Budget
		}
	}
	run.prefix = prefix
	return run
}

// dashboardRate is fleet-ppo-read's open-loop read rate (reads/s).
const dashboardRate = 150

// closedClient is one closed-loop client: it submits a study, waits for
// its terminal status, and repeats. It takes studies first, first+step,
// first+2*step... so the seed fixes each client's inputs.
type closedClient struct {
	base        string
	first, step int
	spec        func(i int) studyd.Spec
	// campaign is how many consecutive studies make one campaign.
	campaign int
	// sse waits on the study's event stream, falling back to polling when
	// the stream ends before its terminal frame; otherwise the client
	// polls.
	sse bool
	// live, when set, publishes the study in hand for the dashboard.
	live *atomic.Value
	// prefix counts completed studies across the phase's clients.
	prefix *prefixSnapshot
}

// prefixStudies is a fleet phase's fixed prefix of work: studies 0 to
// prefixStudies-1, reached early in every run. heap_live_mb, the training
// counter deltas and the state-dir figures are taken over it, so they
// measure that work rather than however much work the run's speed allowed.
var prefixStudies = map[string]int{"fleet-sphere": 500, "fleet-ppo-read": 100}

// prefixSnapshot takes the live heap and the obs.Default counter totals
// once, when the after-th study of the phase completes. With one
// closed-loop client (fleet-ppo-read) those are exactly studies 0 to
// after-1; with two (fleet-sphere) another study may be in flight, but
// its sphere objective moves no training counter. It is read after the
// phase's clients have returned.
type prefixSnapshot struct {
	after    int
	done     atomic.Int64
	heapMB   float64
	counters map[string]float64
	taken    bool
}

func (p *prefixSnapshot) studyDone() {
	if p.done.Add(1) != int64(p.after) {
		return
	}
	p.heapMB = liveHeapMB()
	p.counters, _ = counterTotals(obs.Default) // nil on error: taken stays false
	p.taken = p.counters != nil
}

// run loops until runCtx ends, finishing the study in hand under hardCtx.
func (cl closedClient) run(runCtx, hardCtx context.Context, st *clientStats) {
	client := newClient()
	var campaignStart time.Duration
	for i := cl.first; runCtx.Err() == nil; i += cl.step {
		if len(st.studies)%cl.campaign == 0 {
			campaignStart = elapsed()
		}
		sp := cl.spec(i)
		t0 := elapsed()
		st.attempted++
		sum, err := submit(hardCtx, client, cl.base, sp)
		if err != nil {
			st.submitErrs++
			continue
		}
		if cl.live != nil {
			cl.live.Store(sum.ID)
		}
		var status studyd.Status
		if cl.sse {
			var ok bool
			st.attempted++
			if status, ok = awaitSSE(hardCtx, client, cl.base, sum.ID); !ok {
				st.sseTruncated++
				status, err = awaitPoll(hardCtx, client, cl.base, sum.ID, st)
			}
		} else {
			status, err = awaitPoll(hardCtx, client, cl.base, sum.ID, st)
		}
		st.studies = append(st.studies, submitted{id: sum.ID, index: i, spec: sp, status: status, ms: ms(elapsed() - t0)})
		if err != nil {
			return // hard deadline: verification flags the unfinished study
		}
		cl.prefix.studyDone()
		if len(st.studies)%cl.campaign == 0 {
			st.campaignMs = append(st.campaignMs, ms(elapsed()-campaignStart))
		}
	}
}

// verifyFleet checks every study the phase ran: terminal status done, a
// journal with exactly budget unique trial IDs and no failed trial, and a
// served front equal to the one recomputed from the journal.
func verifyFleet(ctx context.Context, f *fleet, run fleetRun, res *result) {
	c := newClient()
	for _, s := range run.studies {
		res.Attempted++
		if err := verifyStudy(ctx, c, f, s); err != nil {
			res.miss("study %s: %v", s.id, err)
		}
	}
}

func verifyStudy(ctx context.Context, c *http.Client, f *fleet, s submitted) error {
	if s.status != studyd.StatusDone {
		return fmt.Errorf("ended %s", s.status)
	}
	// The fleet runs without journal rotation, so each journal is one file.
	recs, err := journal.ReadFile(filepath.Join(f.dir, s.id+".trials.jsonl"))
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	ids := map[int]bool{}
	bad := 0
	for _, r := range recs {
		ids[r.ID] = true
		if r.Error != "" || r.Pruned {
			bad++
		}
	}
	if len(recs) != s.spec.Budget || len(ids) != s.spec.Budget || bad > 0 {
		return fmt.Errorf("journal holds %d records, %d unique IDs, %d failed; budget %d",
			len(recs), len(ids), bad, s.spec.Budget)
	}
	var served studyd.Front
	if err := getJSON(ctx, c, f.url+"/studies/"+s.id+"/front", &served); err != nil {
		return fmt.Errorf("front: %w", err)
	}
	if want := recomputeFronts(recs, s.spec.Metrics); !sameFronts(served.Fronts, want) {
		return fmt.Errorf("served front %v, recomputed %v", served.Fronts, want)
	}
	return nil
}

// recomputeFronts ranks journal records into successive Pareto fronts of
// trial IDs, each sorted.
func recomputeFronts(recs []journal.Record, metrics []studyd.MetricSpec) [][]int {
	dirs := make([]pareto.Direction, len(metrics))
	for i, m := range metrics {
		if m.Direction == "max" {
			dirs[i] = pareto.Maximize
		}
	}
	pts := make([]pareto.Point, 0, len(recs))
	for _, r := range recs {
		vals := make([]float64, len(metrics))
		for i, m := range metrics {
			vals[i] = r.Values[m.Name]
		}
		pts = append(pts, pareto.Point{ID: r.ID, Values: vals})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
	var out [][]int
	for _, front := range pareto.NonDominatedSort(pts, dirs) {
		ids := make([]int, len(front))
		for i, idx := range front {
			ids[i] = pts[idx].ID
		}
		sort.Ints(ids)
		out = append(out, ids)
	}
	return out
}

func sameFronts(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func runFleet(ctx context.Context, cfg runConfig, workload string, res *result) error {
	budget := cfg.budget()
	if cfg.traced {
		budget /= 2
	}
	f, setups, err := setupFleet(ctx, cfg, "untraced", nil, setupRepeats)
	if err != nil {
		return err
	}
	setSetup(res, setups)
	run := runPhase(ctx, cfg, workload, f, budget)
	verifyFleet(ctx, f, run, res)
	f.close()
	setEndToEnd(res, run)
	if err := os.RemoveAll(f.dir); err != nil || !cfg.traced {
		return err
	}
	return traceFleet(ctx, cfg, workload, res, budget, run.trialsPerSecond())
}

// setEndToEnd reports a fleet phase's end-to-end metrics.
func setEndToEnd(res *result, run fleetRun) {
	var studyMs, readMs, campaignMs []float64
	truncated := 0
	for _, st := range run.clients {
		res.Attempted += st.attempted
		res.fail("submit", st.submitErrs)
		res.fail("poll_read", st.readErrs)
		res.recovered("sse_truncated", st.sseTruncated)
		truncated += st.sseTruncated
		readMs = append(readMs, st.readMs...)
		campaignMs = append(campaignMs, st.campaignMs...)
	}
	for _, s := range run.studies {
		studyMs = append(studyMs, s.ms)
	}
	if len(run.reads.latMs) > 0 { // the dashboard's reads replace the polls
		readMs = run.reads.latMs
		res.Attempted += len(run.reads.latMs)
		res.fail("dashboard_read", run.reads.failed)
	}
	res.set("studyd.sse_truncated", float64(truncated), len(run.studies))
	res.set("campaign_s", median(campaignMs)/1000, len(campaignMs))
	res.set("trials_per_s", run.trialsPerSecond(), run.trials)
	res.set("study_p50_ms", median(studyMs), len(studyMs))
	setTail(res, "study_p90_ms", studyMs, 90)
	res.set("read_p50_ms", median(readMs), len(readMs))
	setTail(res, "read_p99_ms", readMs, 99)
	if !run.prefix.taken {
		res.miss("phase ended before its prefix of %d studies completed", run.prefix.after)
	}
	res.set("heap_live_mb", run.prefix.heapMB, 1)
	setTail(res, "bench.generator_late_p99_ms", run.reads.lateMs, 99)
}

// traceFleet is the traced half of a fleet run: a fresh fleet with the
// benchmark's spans at every layer boundary and the daemons' span trees
// on.
func traceFleet(ctx context.Context, cfg runConfig, workload string, res *result, budget time.Duration, untracedTPS float64) error {
	rec := newRecorder()
	f, _, err := setupFleet(ctx, cfg, "traced", rec, 1)
	if err != nil {
		return err
	}
	defer os.RemoveAll(f.dir)
	defer f.close()
	before, err := counterTotals(obs.Default)
	if err != nil {
		return err
	}
	busBefore := busDropped(f)
	stopProfile, err := startProfile()
	if err != nil {
		return err
	}
	run := runPhase(ctx, cfg, workload, f, budget)
	if err := stopProfile(res); err != nil {
		return err
	}
	res.set("obs.bus_dropped", busDropped(f)-busBefore, 1)
	verifyFleet(ctx, f, run, res)
	foldSpanTrees(ctx, f, run, res)
	// The traced half's operations count toward the run's failures; its
	// end-to-end numbers are not reported (tracing perturbs them).
	traced := &result{Metrics: map[string]metricValue{}}
	setEndToEnd(traced, run)
	res.Attempted += traced.Attempted
	res.Misses = append(res.Misses, traced.Misses...)
	for kind, n := range traced.Failures {
		res.fail(kind, n)
	}
	for kind, n := range traced.Recovered {
		res.recovered(kind, n)
	}
	if run.trials == 0 {
		res.miss("traced phase journaled no trials")
		return nil
	}
	res.set("bench.trace_overhead", 1-run.trialsPerSecond()/untracedTPS, run.trials)
	pre, err := prefixStats(f.dir, run)
	if err != nil {
		return err
	}
	if pre.studies != run.prefix.after {
		res.miss("traced phase completed %d of its first %d studies", pre.studies, run.prefix.after)
		return nil
	}
	if run.prefix.taken {
		setCounterDeltas(res, before, run.prefix.counters, pre.trials)
	}

	meanMs := func(name, span string) float64 {
		ds := rec.durations(span)
		res.set(name, mean(ds), len(ds))
		return mean(ds)
	}
	routerSubmit := meanMs("shard.submit_ms", "shard.submit")
	daemonSubmit := meanMs("studyd.submit_ms", "studyd.submit")
	res.set("shard.place_ms", routerSubmit-daemonSubmit, len(rec.durations("shard.submit")))
	meanMs("shard.proxy_read_ms", "shard.read")
	reads := rec.durations("studyd.read")
	res.set("studyd.read_p50_ms", median(reads), len(reads))
	setTail(res, "studyd.read_p99_ms", reads, 99)
	meanMs("studyd.eval_ms", "studyd.eval")
	worker := meanMs("executor.worker_ms", "executor.worker")
	disp := rec.durations("executor.dispatch")
	res.set("executor.dispatch_p50_ms", median(disp), len(disp))
	setTail(res, "executor.dispatch_p99_ms", disp, 99)
	res.set("executor.wire_ms", mean(disp)-worker, len(disp))
	res.set("executor.dispatches_per_trial", float64(len(disp))/float64(run.trials), len(disp))
	misses := rec.count("executor.dispatch", http.StatusPreconditionRequired)
	res.set("executor.spec_misses", float64(misses), len(disp))
	res.set("executor.retries", float64(len(disp)-rec.count("executor.dispatch", http.StatusOK)-misses), len(disp))

	res.set("studyd.files_per_study", float64(pre.files)/float64(pre.studies), pre.studies)
	res.set("journal.bytes_per_trial", float64(pre.journalBytes)/float64(pre.trials), pre.trials)
	return rec.writeJSONL(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, cfg.seed)))
}

// busDropped reads rldecide_bus_dropped_total across the fleet's daemons.
func busDropped(f *fleet) float64 {
	total := 0.0
	for _, d := range f.daemons {
		if t, err := counterTotals(d.Registry()); err == nil {
			total += t["rldecide_bus_dropped_total"]
		}
	}
	return total
}

// prefixWork is what the state directory holds for a phase's prefix of
// studies (input index below prefixStudies).
type prefixWork struct {
	studies, trials, files int
	journalBytes           int64
}

// prefixStats counts the prefix studies' trials, the files each created
// in the state directory (<id>.*) and the bytes of their trial journals.
func prefixStats(dir string, run fleetRun) (prefixWork, error) {
	var w prefixWork
	ids := map[string]bool{}
	for _, s := range run.studies {
		if s.index < run.prefix.after {
			ids[s.id] = true
			w.studies++
			w.trials += s.spec.Budget
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return w, err
	}
	for _, e := range entries {
		id, _, _ := strings.Cut(e.Name(), ".")
		if e.IsDir() || !ids[id] {
			continue
		}
		w.files++
		if e.Name() == id+".trials.jsonl" {
			info, err := e.Info()
			if err != nil {
				return w, err
			}
			w.journalBytes += info.Size()
		}
	}
	return w, nil
}

// spanSample bounds how many studies' span trees the traced run folds.
const spanSample = 100

// foldSpanTrees fetches the served span trees of an evenly spaced sample
// of the phase's studies through the router and reports the mean
// per-trial critical-path components.
func foldSpanTrees(ctx context.Context, f *fleet, run fleetRun, res *result) {
	c := newClient()
	step := len(run.studies)/spanSample + 1
	var events []obs.Event
	for i := 0; i < len(run.studies); i += step {
		var tree studyd.SpanTree
		if err := getJSON(ctx, c, f.url+"/studies/"+run.studies[i].id+"/spans", &tree); err != nil {
			res.miss("study %s spans: %v", run.studies[i].id, err)
			continue
		}
		for _, sp := range obspan.Flatten(tree.Spans) {
			events = append(events, obs.Event{Kind: obs.KindSpan, Study: sp.Study, Trial: sp.Trial,
				Attempt: sp.Attempt, Worker: sp.Worker, Name: sp.Name, Trace: sp.Trace, Span: sp.ID,
				Parent: sp.Parent, DurMs: sp.DurMs})
		}
	}
	rep := analysis.AnalyzeTrace(events, analysis.TraceOptions{})
	var q, d, o, j []float64
	for _, p := range rep.CriticalPath {
		q = append(q, p.QueueMs)
		d = append(d, p.DispatchMs)
		o = append(o, p.ObjectiveMs)
		j = append(j, p.JournalMs)
	}
	n := len(rep.CriticalPath)
	res.set("span.queue_ms", mean(q), n)
	res.set("span.dispatch_ms", mean(d), n)
	res.set("span.objective_ms", mean(o), n)
	res.set("span.journal_ms", mean(j), n)
}
