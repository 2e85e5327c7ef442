package rl

import (
	"fmt"

	"ams/internal/nn"
	"ams/internal/tensor"
)

// Algorithm selects the Q-learning variant used to compute bootstrap
// targets (and, for DuelingDQN, the network architecture).
type Algorithm int

// The four trainers evaluated in the paper (§VI-B).
const (
	DQN Algorithm = iota
	DoubleDQN
	DuelingDQN
	DeepSARSA
)

// String returns the canonical paper name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case DQN:
		return "DQN"
	case DoubleDQN:
		return "DoubleDQN"
	case DuelingDQN:
		return "DuelingDQN"
	case DeepSARSA:
		return "DeepSARSA"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a name as printed by String back to an
// Algorithm value.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range []Algorithm{DQN, DoubleDQN, DuelingDQN, DeepSARSA} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("rl: unknown algorithm %q", s)
}

// Algorithms lists every supported variant in paper order.
func Algorithms() []Algorithm {
	return []Algorithm{DQN, DoubleDQN, DuelingDQN, DeepSARSA}
}

// LearnerConfig configures a Learner.
type LearnerConfig struct {
	Algo            Algorithm
	StateDim        int   // labeling-state dimension (|L(M)|)
	Actions         int   // |M| + 1 (models plus the END action)
	Hidden          []int // hidden widths; default {256} per the paper
	Gamma           float64
	LearningRate    float64
	BatchSize       int
	ReplayCapacity  int
	TargetSyncEvery int // hard target-network sync period (train steps)
	WarmupSize      int // transitions required before updates begin
	HuberDelta      float64

	// TargetTau, when positive, switches target maintenance to Polyak
	// soft updates (theta_target <- tau*theta + (1-tau)*theta_target)
	// applied after every train step instead of periodic hard syncs.
	TargetTau float64

	// Prioritized enables proportional prioritized experience replay
	// with exponent PriorityAlpha (default 0.6). The paper's agents use
	// uniform replay; this is an extension knob.
	Prioritized   bool
	PriorityAlpha float64
}

// withDefaults fills zero fields with sensible paper-aligned defaults.
func (c LearnerConfig) withDefaults() LearnerConfig {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{256}
	}
	if c.Gamma == 0 {
		c.Gamma = 0.9
	}
	if c.LearningRate == 0 {
		c.LearningRate = 3e-4
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ReplayCapacity == 0 {
		c.ReplayCapacity = 20000
	}
	if c.TargetSyncEvery == 0 {
		c.TargetSyncEvery = 500
	}
	if c.WarmupSize == 0 {
		c.WarmupSize = 16 * c.BatchSize
	}
	if c.HuberDelta == 0 {
		c.HuberDelta = 1
	}
	if c.PriorityAlpha == 0 {
		c.PriorityAlpha = 0.6
	}
	return c
}

// Learner trains a Q-network from transitions. It owns the online and
// target networks, the replay buffer, and the optimizer.
type Learner struct {
	cfg    LearnerConfig
	online *nn.Net
	target *nn.Net
	opt    nn.Optimizer
	buf    *ReplayBuffer
	pbuf   *PrioritizedBuffer
	rng    *tensor.RNG

	trainSteps int
	batch      []Transition
	slots      []int // replay slot of each batch entry
	tdErrs     []float64
	dQ         tensor.Vec

	// targetGen numbers the target network's weights: it moves on every
	// sync or soft update, and memo entries from an older generation are
	// stale.
	targetGen uint64
	memo      targetMemo
}

// NewLearner constructs a learner. The DuelingDQN variant instantiates the
// dueling network architecture; the others use the plain MLP.
func NewLearner(cfg LearnerConfig, rng *tensor.RNG) *Learner {
	cfg = cfg.withDefaults()
	if cfg.StateDim <= 0 || cfg.Actions <= 1 {
		panic(fmt.Sprintf("rl: invalid learner dims state=%d actions=%d", cfg.StateDim, cfg.Actions))
	}
	netCfg := nn.Config{
		In:      cfg.StateDim,
		Hidden:  cfg.Hidden,
		Out:     cfg.Actions,
		Dueling: cfg.Algo == DuelingDQN,
	}
	online := nn.NewNet(netCfg, rng)
	target := online.Clone()
	l := &Learner{
		cfg:    cfg,
		online: online,
		target: target,
		opt:    nn.NewAdam(cfg.LearningRate),
		rng:    rng,
		batch:  make([]Transition, cfg.BatchSize),
		slots:  make([]int, cfg.BatchSize),
		tdErrs: make([]float64, cfg.BatchSize),
		dQ:     tensor.NewVec(cfg.Actions),

		targetGen: 1,
		memo:      targetMemo{width: cfg.Actions},
	}
	if cfg.Prioritized {
		l.pbuf = NewPrioritizedBuffer(cfg.ReplayCapacity, cfg.PriorityAlpha, rng.Split())
	} else {
		l.buf = NewReplayBuffer(cfg.ReplayCapacity, rng.Split())
	}
	return l
}

// Config returns the (defaulted) configuration.
func (l *Learner) Config() LearnerConfig { return l.cfg }

// Online returns the online network. Callers must not use it concurrently
// with training.
func (l *Learner) Online() *nn.Net { return l.online }

// Buffer exposes the uniform replay buffer (nil when the learner uses
// prioritized replay). Add transitions through Observe, not the
// buffer's Add: Observe also drops the overwritten slot's memoized
// target Q-vector.
func (l *Learner) Buffer() *ReplayBuffer { return l.buf }

// BufferLen returns the number of stored transitions in whichever buffer
// is active.
func (l *Learner) BufferLen() int {
	if l.pbuf != nil {
		return l.pbuf.Len()
	}
	return l.buf.Len()
}

// QValues evaluates the online network on a sparse state. The returned
// vector aliases network storage and is invalidated by the next forward.
func (l *Learner) QValues(state []int) tensor.Vec { return l.online.Forward(state) }

// SelectAction performs epsilon-greedy selection restricted to the allowed
// action indices. It panics when allowed is empty.
func (l *Learner) SelectAction(state []int, epsilon float64, allowed []int) int {
	if len(allowed) == 0 {
		panic("rl: SelectAction with no allowed actions")
	}
	if l.rng.Bool(epsilon) {
		return allowed[l.rng.Intn(len(allowed))]
	}
	q := l.online.Forward(state)
	best, bestQ := allowed[0], q[allowed[0]]
	for _, a := range allowed[1:] {
		if q[a] > bestQ {
			best, bestQ = a, q[a]
		}
	}
	return best
}

// Observe appends a transition to the replay buffer.
func (l *Learner) Observe(tr Transition) {
	var slot int
	if l.pbuf != nil {
		slot = l.pbuf.Add(tr)
	} else {
		slot = l.buf.Add(tr)
	}
	l.memo.clear(slot)
}

// TrainStep samples a minibatch and applies one optimizer update,
// returning the mean Huber loss. It is a no-op (returning 0) until the
// buffer has finished its warmup.
func (l *Learner) TrainStep() float64 {
	if l.BufferLen() < l.cfg.WarmupSize || l.BufferLen() < l.cfg.BatchSize {
		return 0
	}
	var batch []Transition
	slots := l.slots
	if l.pbuf != nil {
		batch, slots = l.pbuf.Sample(l.cfg.BatchSize)
	} else {
		batch = l.buf.SampleInto(l.batch, slots)
	}
	l.online.ZeroGrad()
	var totalLoss float64
	for i := range batch {
		tr := &batch[i]
		y := l.targetValue(tr, slots[i])
		q := l.online.Forward(tr.State)
		td := q[tr.Action] - y
		l.tdErrs[i] = td
		loss, grad := nn.HuberLoss(q[tr.Action], y, l.cfg.HuberDelta)
		totalLoss += loss
		l.dQ.Zero()
		l.dQ[tr.Action] = grad / float64(len(batch))
		l.online.Backward(l.dQ)
	}
	if l.pbuf != nil {
		l.pbuf.UpdatePriorities(slots, l.tdErrs[:len(batch)])
	}
	l.opt.Step(l.online)
	l.trainSteps++
	if l.cfg.TargetTau > 0 {
		l.target.SoftUpdateFrom(l.online, l.cfg.TargetTau)
		l.targetGen++
	} else if l.trainSteps%l.cfg.TargetSyncEvery == 0 {
		l.SyncTarget()
	}
	return totalLoss / float64(len(batch))
}

// targetValue computes the bootstrap target for one transition, stored
// in replay slot slot, according to the configured algorithm. Target
// Q-vectors come from the memo; online ones are always computed, since
// the online weights change every step.
func (l *Learner) targetValue(tr *Transition, slot int) float64 {
	if tr.Done {
		return tr.Reward
	}
	switch l.cfg.Algo {
	case DoubleDQN, DuelingDQN:
		// Action selected by the online net, evaluated by the target net.
		// The dueling variant also uses the double estimator, as in the
		// dueling-networks paper, which keeps its shared value stream from
		// compounding max-bias.
		qOnline := l.online.Forward(tr.Next)
		_, argmax := qOnline.Max()
		qTarget := l.memo.get(slot, l.targetGen, l.target, tr.Next)
		return tr.Reward + l.cfg.Gamma*qTarget[argmax]
	case DeepSARSA:
		// On-policy: evaluate the action the behaviour policy actually took.
		qTarget := l.memo.get(slot, l.targetGen, l.target, tr.Next)
		return tr.Reward + l.cfg.Gamma*qTarget[tr.NextAction]
	default: // DQN uses the standard max-target.
		qTarget := l.memo.get(slot, l.targetGen, l.target, tr.Next)
		maxQ, _ := qTarget.Max()
		return tr.Reward + l.cfg.Gamma*maxQ
	}
}

// SyncTarget forces a hard copy of the online network into the target.
func (l *Learner) SyncTarget() {
	l.target.CopyWeightsFrom(l.online)
	l.targetGen++
}

// TrainSteps returns the number of optimizer updates performed.
func (l *Learner) TrainSteps() int { return l.trainSteps }
