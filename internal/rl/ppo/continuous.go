package ppo

import (
	"math"
	"math/rand/v2"

	"rldecide/internal/gym"
	"rldecide/internal/mathx"
	"rldecide/internal/nn"
	"rldecide/internal/tensor"
)

// Continuous is the Gaussian-policy variant of PPO for Box action spaces
// (the airdrop simulator's continuous brake-deflection mode). The actor
// MLP outputs the action mean; a state-independent learnable log-std
// vector sets the exploration scale, as in the reference implementations.
type Continuous struct {
	Cfg    Config
	ObsDim int
	ActDim int

	Actor  *nn.MLP
	Critic *nn.MLP
	LogStd []float64

	logStdGrad []float64
	optActor   *nn.Adam
	optCritic  *nn.Adam
	optLogStd  *nn.Adam
	rng        *rand.Rand
	updates    int

	// The minibatch step's actor and critic blocks run as two tensor.Run
	// tasks, bound once, as in PPO. Each reads the minibatch fields and
	// writes only its own network, optimizer and results.
	mbRoll    *ContRollout
	mbAdv     []float64
	mbRet     []float64
	mbB       []int
	mbX       *tensor.Mat
	mbTasks   []func()
	actorOut  actorResult
	criticOut criticResult
}

// NewContinuous returns a continuous-action PPO learner.
func NewContinuous(cfg Config, obsDim, actDim int, seed uint64) *Continuous {
	cfg = cfg.WithDefaults()
	rng := mathx.NewRand(seed)
	actorSizes := append(append([]int{obsDim}, cfg.Hidden...), actDim)
	criticSizes := append(append([]int{obsDim}, cfg.Hidden...), 1)
	p := &Continuous{
		Cfg:        cfg,
		ObsDim:     obsDim,
		ActDim:     actDim,
		Actor:      nn.NewMLP(rng, actorSizes, nn.Tanh{}, 0.01),
		Critic:     nn.NewMLP(rng, criticSizes, nn.Tanh{}, 1.0),
		LogStd:     make([]float64, actDim),
		logStdGrad: make([]float64, actDim),
		rng:        rng,
	}
	for i := range p.LogStd {
		p.LogStd[i] = -0.5
	}
	p.optActor = nn.NewAdam(p.Actor.Params(), cfg.LR)
	p.optCritic = nn.NewAdam(p.Critic.Params(), cfg.LR)
	p.optLogStd = nn.NewAdam([]nn.Param{{Name: "logstd", Data: p.LogStd, Grad: p.logStdGrad}}, cfg.LR)
	return p
}

// Act samples an action, returning it with its log-probability and the
// value estimate.
func (p *Continuous) Act(obs []float64) (action []float64, logp, value float64) {
	mean := p.Actor.Forward1(obs)
	action = nn.GaussianSample(p.rng, mean, p.LogStd, nil)
	logp = nn.GaussianLogProb(action, mean, p.LogStd)
	value = p.Critic.Forward1(obs)[0]
	return action, logp, value
}

// ActMean returns the policy mean (deterministic evaluation).
func (p *Continuous) ActMean(obs []float64) []float64 {
	return p.Actor.Forward1(obs)
}

// Value returns the critic estimate for obs.
func (p *Continuous) Value(obs []float64) float64 { return p.Critic.Forward1(obs)[0] }

// Updates returns the number of Update calls so far.
func (p *Continuous) Updates() int { return p.updates }

// ContStep is one recorded step of a continuous rollout.
type ContStep struct {
	Obs     []float64
	Act     []float64
	LogP    float64
	Val     float64
	Rew     float64
	Done    bool
	Trunc   bool
	NextVal float64
}

// ContRollout is an on-policy batch for the continuous learner.
type ContRollout struct {
	Steps []ContStep
}

// CollectContinuous gathers nSteps per environment from vec under p's
// stochastic policy, with the same GAE bookkeeping as the discrete
// collector.
func CollectContinuous(vec *gym.VecEnv, p *Continuous, nSteps int) *ContRollout {
	n := vec.N()
	obs := vec.Reset()
	actions := make([][]float64, n)

	// Per-env chains: the GAE λ-recursion must never cross environments,
	// so each env's steps stay contiguous and the chains are concatenated
	// at the end (every chain ends in a Done or Trunc boundary).
	chains := make([][]ContStep, n)

	type pending struct {
		step ContStep
		has  bool
	}
	pend := make([]pending, n)

	for t := 0; t < nSteps; t++ {
		vals := make([]float64, n)
		logps := make([]float64, n)
		acts := make([][]float64, n)
		for i := 0; i < n; i++ {
			a, lp, v := p.Act(obs[i])
			acts[i], logps[i], vals[i] = a, lp, v
			actions[i] = a
			if pend[i].has {
				pend[i].step.NextVal = v
				chains[i] = append(chains[i], pend[i].step)
				pend[i].has = false
			}
		}
		steps := vec.Step(actions)
		for i, s := range steps {
			st := ContStep{
				Obs: obs[i], Act: acts[i], LogP: logps[i], Val: vals[i],
				Rew: s.Reward, Done: s.Done && !s.Truncated,
			}
			if s.Done {
				if s.Truncated {
					st.Trunc = true
					st.NextVal = p.Value(s.FinalObs)
				}
				chains[i] = append(chains[i], st)
			} else {
				pend[i] = pending{step: st, has: true}
			}
			obs[i] = s.Obs
		}
	}
	out := &ContRollout{}
	for i := range chains {
		if pend[i].has {
			st := pend[i].step
			st.Trunc = true
			st.NextVal = p.Value(obs[i])
			chains[i] = append(chains[i], st)
		}
		out.Steps = append(out.Steps, chains[i]...)
	}
	return out
}

// computeGAE fills advantages and returns. Steps are laid out as
// concatenated per-env chains whose final entry always carries a Done or
// Trunc boundary, so the single backward λ-recursion (which resets at
// every boundary) never leaks across environments.
func (r *ContRollout) computeGAE(gamma, lambda float64) (adv, ret []float64) {
	n := len(r.Steps)
	adv = make([]float64, n)
	ret = make([]float64, n)
	next := 0.0
	for t := n - 1; t >= 0; t-- {
		s := r.Steps[t]
		nextVal := s.NextVal
		if s.Done {
			nextVal = 0
		}
		delta := s.Rew + gamma*nextVal - s.Val
		if s.Done || s.Trunc {
			next = 0
		}
		adv[t] = delta + gamma*lambda*next
		next = adv[t]
		ret[t] = adv[t] + s.Val
	}
	return adv, ret
}

// Update performs one PPO update on a continuous rollout.
func (p *Continuous) Update(roll *ContRollout) Stats {
	n := len(roll.Steps)
	if n == 0 {
		return Stats{}
	}
	adv, ret := roll.computeGAE(p.Cfg.Gamma, p.Cfg.Lambda)
	if p.Cfg.NormAdv {
		m := mathx.Mean(adv)
		s := mathx.Std(adv)
		if s < 1e-8 {
			s = 1
		}
		for i := range adv {
			adv[i] = (adv[i] - m) / s
		}
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	mb := p.Cfg.Minibatch
	if mb > n {
		mb = n
	}
	var stats Stats
	stats.Steps = n
	batches := 0
	for ep := 0; ep < p.Cfg.Epochs; ep++ {
		p.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < n; start += mb {
			end := start + mb
			if end > n {
				end = n
			}
			s := p.updateMinibatch(roll, adv, ret, idx[start:end])
			stats.PolicyLoss += s.PolicyLoss
			stats.ValueLoss += s.ValueLoss
			stats.Entropy += s.Entropy
			stats.ClipFrac += s.ClipFrac
			batches++
		}
	}
	if batches > 0 {
		stats.PolicyLoss /= float64(batches)
		stats.ValueLoss /= float64(batches)
		stats.Entropy /= float64(batches)
		stats.ClipFrac /= float64(batches)
	}
	p.updates++
	return stats
}

func (p *Continuous) updateMinibatch(roll *ContRollout, adv, ret []float64, b []int) Stats {
	bs := len(b)
	x := tensor.New(bs, p.ObsDim)
	for i, j := range b {
		copy(x.Row(i), roll.Steps[j].Obs)
	}
	if p.mbTasks == nil {
		p.mbTasks = []func(){p.actorStep, p.criticStep}
	}
	p.mbRoll, p.mbAdv, p.mbRet, p.mbB, p.mbX = roll, adv, ret, b, x
	tensor.Run(p.mbTasks...)
	a, c := p.actorOut, p.criticOut
	return Stats{
		PolicyLoss: a.polLoss / float64(bs),
		ValueLoss:  c.vfLoss / float64(bs),
		Entropy:    a.entSum / float64(bs),
		ClipFrac:   a.clipped / float64(bs),
	}
}

// actorStep is the minibatch step's actor block: the mean network and the
// log-std vector.
func (p *Continuous) actorStep() {
	b, adv := p.mbB, p.mbAdv
	bs := len(b)
	p.Actor.ZeroGrad()
	for i := range p.logStdGrad {
		p.logStdGrad[i] = 0
	}
	means := p.Actor.Forward(p.mbX)
	dmeans := tensor.New(bs, p.ActDim)

	var polLoss, entSum, clipped float64
	for i, j := range b {
		s := p.mbRoll.Steps[j]
		mean := means.Row(i)
		newLogp := nn.GaussianLogProb(s.Act, mean, p.LogStd)
		ratio := math.Exp(newLogp - s.LogP)
		adval := adv[j]

		surr1 := ratio * adval
		surr2 := mathx.Clip(ratio, 1-p.Cfg.ClipEps, 1+p.Cfg.ClipEps) * adval
		polLoss += -math.Min(surr1, surr2)

		var dLdLogp float64
		switch {
		case surr1 <= surr2:
			dLdLogp = -adval * ratio
		case ratio > 1-p.Cfg.ClipEps && ratio < 1+p.Cfg.ClipEps:
			dLdLogp = -adval * ratio
		default:
			clipped++
		}

		entSum += nn.GaussianEntropy(p.LogStd)
		drow := dmeans.Row(i)
		for k := 0; k < p.ActDim; k++ {
			std := math.Exp(p.LogStd[k])
			z := (s.Act[k] - mean[k]) / std
			// dlogp/dmean = z/std; dlogp/dlogstd = z^2 - 1;
			// dH/dlogstd = 1.
			drow[k] = dLdLogp * (z / std) / float64(bs)
			p.logStdGrad[k] += (dLdLogp*(z*z-1) - p.Cfg.EntCoef) / float64(bs)
		}
	}
	p.Actor.Backward(dmeans)
	nn.ClipGrads(p.Actor.Params(), p.Cfg.MaxGrad)
	p.optActor.Step()
	p.optLogStd.Step()
	// Keep exploration bounded.
	for i := range p.LogStd {
		p.LogStd[i] = mathx.Clip(p.LogStd[i], -4, 1)
	}
	p.actorOut = actorResult{polLoss: polLoss, entSum: entSum, clipped: clipped}
}

// criticStep is the minibatch step's critic block.
func (p *Continuous) criticStep() {
	b, ret := p.mbB, p.mbRet
	bs := len(b)
	p.Critic.ZeroGrad()
	values := p.Critic.Forward(p.mbX)
	dvals := tensor.New(bs, 1)
	var vfLoss float64
	for i, j := range b {
		d := values.At(i, 0) - ret[j]
		vfLoss += 0.5 * d * d
		dvals.Set(i, 0, p.Cfg.VfCoef*d/float64(bs))
	}
	p.Critic.Backward(dvals)
	nn.ClipGrads(p.Critic.Params(), p.Cfg.MaxGrad)
	p.optCritic.Step()
	p.criticOut = criticResult{vfLoss: vfLoss}
}
