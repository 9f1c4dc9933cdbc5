// Command e2ebench is the repository's end-to-end benchmark. It drives the
// Table I campaign in-process and a sharded study fleet (router, daemons,
// workers) over loopback HTTP through their public APIs, checks every
// output, and prints one JSON result line. See README.md.
//
// Usage:
//
//	e2ebench --workload tablei --seed 1 --seconds 20 --trace 0
//	e2ebench spec                      # print BENCHMARK.json
//	e2ebench compare OLD.json NEW.json # compare two result files
//	e2ebench baseline RESULT.json...   # fold result files into baseline.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

//go:embed baseline.json
var baselineJSON []byte

// metricValue is one reported number; Samples is how many observations
// it summarizes.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is everything one run measured, stamped with the machine.
type result struct {
	Machine   machine  `json:"machine"`
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Misses    []string `json:"misses,omitempty"`
	// Failures counts failed operations by kind (non-2xx reads,
	// correctness misses, ...).
	Failures map[string]int `json:"failures,omitempty"`
	// Recovered counts defects an operation met and recovered from by
	// kind (a truncated SSE stream, after which the client polls): the
	// operation succeeded, so they are not in Failed, but error_rate
	// counts them.
	Recovered map[string]int         `json:"recovered,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Fingerprint is the tablei outcome fingerprint of the run's first
	// campaign.
	Fingerprint string `json:"fingerprint,omitempty"`
}

func (r *result) set(name string, v float64, samples int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), Samples: samples}
}

// fail counts n failed operations of a kind.
func (r *result) fail(kind string, n int) {
	if n == 0 {
		return
	}
	if r.Failures == nil {
		r.Failures = map[string]int{}
	}
	r.Failures[kind] += n
	r.Failed += n
}

// recovered counts n defects of a kind that operations recovered from.
func (r *result) recovered(kind string, n int) {
	if n == 0 {
		return
	}
	if r.Recovered == nil {
		r.Recovered = map[string]int{}
	}
	r.Recovered[kind] += n
}

// errorRate is error_rate: failed operations and recovered defects over
// the operations attempted.
func (r *result) errorRate() float64 {
	n := r.Failed
	for _, k := range r.Recovered {
		n += k
	}
	return float64(n) / float64(r.Attempted)
}

// miss records a failed correctness check: it counts as a failed
// operation (the caller counts the attempt) and fails the run.
func (r *result) miss(format string, args ...any) {
	r.Misses = append(r.Misses, fmt.Sprintf(format, args...))
	r.fail("correctness", 1)
}

// runConfig is one run's parameters.
type runConfig struct {
	seed    uint64
	seconds int
	traced  bool
	out     string
}

func (c runConfig) budget() time.Duration { return time.Duration(c.seconds) * time.Second }

// startupSeconds is the process start charged to set-up: run.sh times
// `e2ebench startup` (exec through runtime and package init to main) a few
// times and passes the median in microseconds. 0 when run without it.
func startupSeconds() float64 {
	us, err := strconv.ParseFloat(os.Getenv("E2EBENCH_STARTUP_US"), 64)
	if err != nil {
		return 0
	}
	return us / 1e6
}

// setupRepeats is how many times a run sets its workload up; setup_s
// takes the median.
const setupRepeats = 21

// setSetup reports set-up time: the process start plus the median of the
// run's in-process set-ups.
func setSetup(res *result, setups []float64) {
	start := startupSeconds()
	fmt.Fprintf(os.Stderr, "setup: process start %.6fs, in-process %v\n", start, setups)
	res.set("setup_s", start+median(setups), len(setups))
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "startup":
			return // timed by run.sh: the process start up to main
		case "spec":
			os.Stdout.Write(specJSON())
			return
		case "compare":
			os.Exit(compareCmd(os.Args[2:]))
		case "baseline":
			os.Exit(baselineCmd(os.Args[2:]))
		}
	}
	workload := flag.String("workload", "", "workload name (tablei, fleet-sphere, fleet-ppo-read)")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", runSeconds, "measurement time")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	out := flag.String("out", ".bench_build/e2ebench-out", "directory for result and span files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res := &result{
		Machine:  thisMachine(),
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    cfg.traced,
		Metrics:  map[string]metricValue{},
	}
	ctx := context.Background()
	var err error
	switch *workload {
	case "tablei":
		err = runTableI(cfg, res)
	case "fleet-sphere", "fleet-ppo-read":
		err = runFleet(ctx, cfg, *workload, res)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	os.Exit(report(cfg, res))
}

// report writes the result file, prints every metric with its unit and
// sample count, and prints the JSON result line last. It returns the
// exit code: non-zero when a correctness check failed.
func report(cfg runConfig, res *result) int {
	if res.Attempted > 0 {
		res.set("error_rate", res.errorRate(), res.Attempted)
	}
	var names []string
	if cfg.traced {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	}
	// A per-layer metric the workload does not exercise reads 0 with no
	// samples; an end-to-end metric is never absent.
	line := map[string]map[string]any{}
	for _, n := range names {
		mv, ok := res.Metrics[n]
		if !ok && !cfg.traced {
			res.miss("end-to-end metric %s not measured", n)
		}
		line[n] = map[string]any{"value": mv.Value, "unit": unitOf(n)}
	}
	res.Correct = len(res.Misses) == 0
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s arch=%s commit=%s\n",
		res.Machine.CPU, res.Machine.NProc, res.Machine.GOMAXPROCS, res.Machine.GoVersion, res.Machine.GOARCH, res.Machine.Commit)
	all := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		all = append(all, n)
	}
	sort.Strings(all)
	for _, n := range all {
		mv := res.Metrics[n]
		fmt.Printf("%-30s %14.6g %-6s n=%d\n", n, mv.Value, mv.Unit, mv.Samples)
	}
	for _, m := range res.Misses {
		fmt.Println("MISS:", m)
	}
	printKinds("failed operations", res.Failures)
	printKinds("recovered defects", res.Recovered)
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-%s.json", res.Workload, res.Seed, mode))
	if data, err := json.MarshalIndent(res, "", "  "); err == nil {
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing result:", err)
		}
	}
	out, _ := json.Marshal(map[string]any{ // strings, ints, floats: cannot fail
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   line,
	})
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// printKinds prints per-kind counts in name order.
func printKinds(label string, counts map[string]int) {
	kinds := make([]string, 0, len(counts))
	for kind := range counts {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		fmt.Printf("%s: %s=%d\n", label, kind, counts[kind])
	}
}

// loadResults reads result files; a baseline file contributes its
// recorded results.
func loadResults(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err == nil && len(b.Results) > 0 {
		return b.Results, nil
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Workload == "" {
		return nil, fmt.Errorf("%s: not a result or baseline file", path)
	}
	return []result{r}, nil
}

// exactUnits are the units of machine-independent counts, compared across
// any two machines. Bytes are not among them: a journal record carries
// the trial's wall_ms, whose printed length varies with timing.
var exactUnits = map[string]bool{"count": true}

// compareCmd compares NEW against OLD per workload and mode. Times are
// compared only when both were measured on the same machine; exact counts
// are always compared.
func compareCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare OLD.json NEW.json")
		return 2
	}
	olds, err := loadResults(args[0])
	if err == nil {
		var news []result
		if news, err = loadResults(args[1]); err == nil {
			return compareResults(os.Stdout, olds, news)
		}
	}
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	return 1
}

func compareResults(w io.Writer, olds, news []result) int {
	matched := 0
	for _, nw := range news {
		for _, old := range olds {
			if old.Workload != nw.Workload || old.Trace != nw.Trace {
				continue
			}
			matched++
			same := sameMachine(old.Machine, nw.Machine)
			fmt.Fprintf(w, "%s trace=%v (old seed %d, new seed %d)\n", nw.Workload, nw.Trace, old.Seed, nw.Seed)
			if !same {
				fmt.Fprintf(w, "  machines differ (%s/%d cpu vs %s/%d cpu): time comparisons refused, counts compared\n",
					old.Machine.CPU, old.Machine.NProc, nw.Machine.CPU, nw.Machine.NProc)
			}
			names := make([]string, 0, len(nw.Metrics))
			for n := range nw.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				a, ok := old.Metrics[n]
				if !ok {
					continue
				}
				b := nw.Metrics[n]
				switch {
				case exactUnits[b.Unit]:
					fmt.Fprintf(w, "  %-30s %14.6g -> %-14.6g %s (count)\n", n, a.Value, b.Value, b.Unit)
				case !same:
					fmt.Fprintf(w, "  %-30s refused (different machine)\n", n)
				default:
					delta := 0.0
					if a.Value != 0 {
						delta = b.Value/a.Value - 1
					}
					fmt.Fprintf(w, "  %-30s %14.6g -> %-14.6g %s (%+.1f%%)\n", n, a.Value, b.Value, b.Unit, 100*delta)
				}
			}
		}
	}
	if matched == 0 {
		fmt.Fprintln(w, "no results share a workload and mode")
		return 1
	}
	return 0
}

// baseline is baseline.json: the first recorded medians per workload and
// mode, the machine they were measured on, the tablei outcome
// fingerprints per machine class and seed, and the layer -> end-to-end
// prediction table.
type baseline struct {
	Machine      machine                      `json:"machine"`
	Notes        []string                     `json:"notes,omitempty"`
	LayerMap     map[string][]string          `json:"layer_map"`
	Fingerprints map[string]map[string]string `json:"tablei_fingerprints"`
	Results      []result                     `json:"results"`
}

// fingerprintClass keys recorded tablei fingerprints. The replay contract
// is bit-identity on one platform: floating-point results may differ
// across architectures (FMA fusion) and CPU feature sets (math kernels
// that use FMA when present), so a fingerprint is checked only on the
// architecture and CPU model it was recorded on.
func fingerprintClass(m machine) string { return m.GOARCH + "/" + m.CPU }

// recordedFingerprint returns the tablei fingerprint recorded for seed on
// this machine class ("" when none was recorded).
func recordedFingerprint(seed uint64) (string, error) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return "", fmt.Errorf("baseline.json: %w", err)
	}
	return b.Fingerprints[fingerprintClass(thisMachine())][strconv.FormatUint(seed, 10)], nil
}

// baselineCmd folds result files into a baseline document on stdout: per
// workload and mode, each metric's median over the files, and the
// failures pooled over them.
func baselineCmd(args []string) int {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		b = baseline{}
	}
	b.LayerMap = layerMap()
	if b.Fingerprints == nil {
		b.Fingerprints = map[string]map[string]string{}
	}
	type key struct {
		workload string
		trace    bool
	}
	groups := map[key][]result{}
	var order []key
	for _, path := range args {
		rs, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		for _, r := range rs {
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "e2ebench: %s: run failed its checks; not a baseline\n", path)
				return 1
			}
			k := key{r.Workload, r.Trace}
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], r)
			b.Machine = r.Machine
			if r.Fingerprint != "" {
				class := fingerprintClass(r.Machine)
				if b.Fingerprints[class] == nil {
					b.Fingerprints[class] = map[string]string{}
				}
				b.Fingerprints[class][strconv.FormatUint(r.Seed, 10)] = r.Fingerprint
			}
		}
	}
	if len(order) == 0 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench baseline RESULT.json...")
		return 2
	}
	b.Results = nil
	for _, k := range order {
		rs := groups[k]
		med := result{Machine: rs[0].Machine, Workload: k.workload, Trace: k.trace, Seconds: rs[0].Seconds,
			Correct: true, Metrics: map[string]metricValue{}}
		for _, r := range rs {
			med.Attempted += r.Attempted
			for kind, n := range r.Failures {
				med.fail(kind, n)
			}
			for kind, n := range r.Recovered {
				med.recovered(kind, n)
			}
		}
		for n, mv := range rs[0].Metrics {
			var xs []float64
			for _, r := range rs {
				if v, ok := r.Metrics[n]; ok {
					xs = append(xs, v.Value)
				}
			}
			med.Metrics[n] = metricValue{Value: median(xs), Unit: mv.Unit, Samples: len(xs)}
		}
		// Failures are rare events: pool them over the runs rather than
		// take the median of per-run rates.
		med.set("error_rate", med.errorRate(), med.Attempted)
		b.Results = append(b.Results, med)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	os.Stdout.Write(append(data, '\n'))
	return 0
}
