package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"rldecide/internal/core"
	"rldecide/internal/distrib"
	"rldecide/internal/experiments"
	"rldecide/internal/obs"
	"rldecide/internal/param"
)

// tableIScale is BenchmarkTableI's micro training scale.
func tableIScale() experiments.Scale {
	s := experiments.QuickScale()
	s.TotalSteps = 1_000
	s.SACStartSteps = 300
	s.SACBatch = 32
	s.EvalEpisodes = 5
	s.RolloutSteps = 32
	return s
}

// tableICampaigns is how many campaigns a run of the given length holds:
// one per 10 s. The count follows --seconds, never the machine's speed, so
// a parent and a change always run the same campaigns (0, 1, ...) on the
// same seeds. A campaign takes 6-15 s on a 2-vCPU Xeon VM.
func tableICampaigns(seconds int) int { return max(1, seconds/10) }

// campaignSeed derives campaign i's study seed from the run seed.
func campaignSeed(seed uint64, i int) uint64 {
	return inputRand(seed, "campaign", i).Uint64()
}

// fingerprint hashes the 18 outcomes (reward, time, power, exact bits):
// the replay contract says one seed always yields this same value.
func fingerprint(rep *core.Report) (string, int) {
	outs := experiments.Outcomes(rep)
	var buf bytes.Buffer
	for _, o := range outs {
		fmt.Fprintf(&buf, "%d %x %x %x\n", o.ID, math.Float64bits(o.Reward),
			math.Float64bits(o.TimeMinutes), math.Float64bits(o.PowerKJ))
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), len(outs)
}

// campaignRun is what one campaign measured.
type campaignRun struct {
	wall        time.Duration
	fingerprint string
	completed   int
	failed      int
}

// runCampaign runs one Table I campaign. rec, when non-nil, times every
// configuration.
func runCampaign(seed uint64, i int, rec *recorder) (campaignRun, *core.Report, error) {
	study := experiments.NewTableIStudy(tableIScale(), campaignSeed(seed, i), 1)
	if rec != nil {
		inner := study.Objective
		trace := fmt.Sprintf("campaign-%d", i)
		study.Objective = func(a param.Assignment, s uint64, r *core.Recorder) error {
			t0 := elapsed()
			err := inner(a, s, r)
			sol := experiments.SolutionFromAssignment(a)
			rec.record("experiments."+string(sol.Algo), "campaign", trace, t0, 0)
			rec.record("distrib."+string(sol.Framework), "campaign", trace, t0, 0)
			return err
		}
	}
	t0 := elapsed()
	rep, err := study.Run(len(experiments.TableI()))
	wall := elapsed() - t0
	if err != nil {
		return campaignRun{}, nil, err
	}
	cr := campaignRun{wall: wall}
	cr.fingerprint, cr.completed = fingerprint(rep)
	for _, t := range rep.Trials {
		if t.Err != nil {
			cr.failed++
		}
	}
	return cr, rep, nil
}

// runTableI measures the Table I workload: campaigns 0 to
// tableICampaigns(seconds)-1. The traced run has half as many untraced
// campaigns, then runs the same ones traced (objective timing, training
// counters, CPU profile) and requires identical fingerprints from both.
func runTableI(cfg runConfig, res *result) error {
	recorded, err := recordedFingerprint(cfg.seed)
	if err != nil {
		return err
	}
	// Set-up: build the study (the Table I configuration set, space,
	// ranker) several times and keep the median.
	var builds []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := elapsed()
		_ = experiments.NewTableIStudy(tableIScale(), campaignSeed(cfg.seed, 0), 1)
		builds = append(builds, (elapsed() - t0).Seconds())
	}
	setSetup(res, builds)

	campaigns := tableICampaigns(cfg.seconds)
	if cfg.traced {
		campaigns = tableICampaigns(cfg.seconds / 2)
	}
	var runs []campaignRun
	var keep *core.Report
	for i := 0; i < campaigns; i++ {
		cr, rep, err := runCampaign(cfg.seed, i, nil)
		if err != nil {
			return err
		}
		runs = append(runs, cr)
		keep = rep
		fmt.Fprintf(os.Stderr, "campaign %d: %.3fs\n", i, cr.wall.Seconds())
	}
	checkCampaigns(res, runs, recorded)
	res.Fingerprint = runs[0].fingerprint

	var walls []float64
	var total time.Duration
	for _, cr := range runs {
		walls = append(walls, cr.wall.Seconds())
		total += cr.wall
	}
	trials := len(runs) * len(experiments.TableI())
	untracedTPS := float64(trials) / total.Seconds()
	// The mean over the run's fixed campaigns: the nearest-rank median of
	// two would be their minimum.
	res.set("campaign_s", mean(walls), len(walls))
	res.set("study_p50_ms", 1000*mean(walls), len(walls))
	res.set("trials_per_s", untracedTPS, trials)
	res.set("heap_live_mb", liveHeapMB(), 1)
	runtime.KeepAlive(keep)
	if !cfg.traced {
		return nil
	}
	return traceTableI(cfg, res, runs, untracedTPS)
}

// checkCampaigns applies the replay contract to a run's campaigns: every
// configuration completes, and campaign 0 matches the fingerprint
// recorded for this seed when one is recorded.
func checkCampaigns(res *result, runs []campaignRun, recorded string) {
	n := len(experiments.TableI())
	for i, cr := range runs {
		res.Attempted += n
		res.fail("trial", cr.failed)
		if cr.completed != n {
			res.miss("campaign %d completed %d of %d configurations", i, cr.completed, n)
		}
	}
	if recorded == "" {
		return
	}
	res.Attempted++
	if runs[0].fingerprint != recorded {
		res.miss("campaign 0 fingerprint %s differs from the recorded %s", runs[0].fingerprint, recorded)
	}
}

// traceTableI is the traced half of a tablei run: the untraced campaigns
// again, with the benchmark's spans around each configuration, the
// training counters and a CPU profile.
func traceTableI(cfg runConfig, res *result, untraced []campaignRun, untracedTPS float64) error {
	rec := newRecorder()
	before, err := counterTotals(obs.Default)
	if err != nil {
		return err
	}
	stopProfile, err := startProfile()
	if err != nil {
		return err
	}
	var runs []campaignRun
	for i := range untraced {
		cr, _, err := runCampaign(cfg.seed, i, rec)
		if err != nil {
			_ = stopProfile(res)
			return err
		}
		runs = append(runs, cr)
	}
	if err := stopProfile(res); err != nil {
		return err
	}
	after, err := counterTotals(obs.Default)
	if err != nil {
		return err
	}
	for i, cr := range runs {
		res.Attempted++
		if cr.fingerprint != untraced[i].fingerprint {
			res.miss("traced campaign %d fingerprint %s differs from untraced %s", i, cr.fingerprint, untraced[i].fingerprint)
		}
	}
	checkCampaigns(res, runs, "")

	n := len(experiments.TableI())
	trials := len(runs) * n
	var total time.Duration
	for _, cr := range runs {
		total += cr.wall
	}
	res.set("bench.trace_overhead", 1-float64(trials)/total.Seconds()/untracedTPS, trials)

	setMeanS := func(name, span string) {
		ds := rec.durations(span)
		res.set(name, mean(ds)/1000, len(ds))
	}
	setMeanS("experiments.sac_trial_s", "experiments."+string(distrib.SAC))
	setMeanS("experiments.ppo_trial_s", "experiments."+string(distrib.PPO))
	setMeanS("distrib.rllib_s", "distrib."+string(distrib.RLlib))
	setMeanS("distrib.sb_s", "distrib."+string(distrib.StableBaselines))
	setMeanS("distrib.tfagents_s", "distrib."+string(distrib.TFAgents))
	setCounterDeltas(res, before, after, trials)
	return rec.writeJSONL(filepath.Join(cfg.out, fmt.Sprintf("tablei-seed%d.spans.jsonl", cfg.seed)))
}

// startProfile starts the process CPU profile. The returned stop ends it
// and folds it into the *.cpu_share metrics.
func startProfile() (stop func(res *result) error, err error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	return func(res *result) error {
		pprof.StopCPUProfile()
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return err
		}
		for bucket, share := range foldShares(samples) {
			res.set(bucket+".cpu_share", share, len(samples))
		}
		return nil
	}, nil
}

// setTail reports the p-th percentile when the sample supports it (see
// percentile) and otherwise leaves the metric at 0 with the sample count.
func setTail(res *result, name string, xs []float64, p float64) {
	v, _ := percentile(append([]float64(nil), xs...), p)
	res.set(name, v, len(xs))
}

// trainingCounters maps per-layer metric names to the obs.Default counter
// families they are deltas of.
var trainingCounters = []struct{ metric, family string }{
	{"airdrop.env_steps", "rldecide_env_steps_total"},
	{"nn.forward_passes", "rldecide_nn_forward_total"},
	{"nn.backward_passes", "rldecide_nn_backward_total"},
	{"tensor.pool_chunks", "rldecide_tensor_pool_chunks_total"},
	{"tensor.serial_calls", "rldecide_tensor_serial_calls_total"},
}

// setCounterDeltas reports the training counters' growth per trial.
func setCounterDeltas(res *result, before, after map[string]float64, trials int) {
	for _, c := range trainingCounters {
		res.set(c.metric, (after[c.family]-before[c.family])/float64(trials), trials)
	}
}

// counterTotals reads a registry's exposition and sums each family's
// samples.
func counterTotals(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return parseExposition(buf.Bytes()), nil
}
