package rl

import (
	"math"
	"testing"

	"ams/internal/nn"
	"ams/internal/tensor"
)

// refTrainStep is TrainStep without the target memo: every bootstrap
// target runs the target network. It draws from the buffer exactly as
// TrainStep does, so two learners built alike stay in step.
func refTrainStep(l *Learner) float64 {
	if l.BufferLen() < l.cfg.WarmupSize || l.BufferLen() < l.cfg.BatchSize {
		return 0
	}
	var batch []Transition
	var idxs []int
	if l.pbuf != nil {
		batch, idxs = l.pbuf.Sample(l.cfg.BatchSize)
	} else {
		batch = l.buf.SampleInto(l.batch, nil)
	}
	l.online.ZeroGrad()
	var totalLoss float64
	for i := range batch {
		tr := &batch[i]
		y := refTargetValue(l, tr)
		q := l.online.Forward(tr.State)
		l.tdErrs[i] = q[tr.Action] - y
		loss, grad := nn.HuberLoss(q[tr.Action], y, l.cfg.HuberDelta)
		totalLoss += loss
		l.dQ.Zero()
		l.dQ[tr.Action] = grad / float64(len(batch))
		l.online.Backward(l.dQ)
	}
	if l.pbuf != nil {
		l.pbuf.UpdatePriorities(idxs, l.tdErrs[:len(batch)])
	}
	l.opt.Step(l.online)
	l.trainSteps++
	if l.cfg.TargetTau > 0 {
		l.target.SoftUpdateFrom(l.online, l.cfg.TargetTau)
	} else if l.trainSteps%l.cfg.TargetSyncEvery == 0 {
		l.target.CopyWeightsFrom(l.online)
	}
	return totalLoss / float64(len(batch))
}

func refTargetValue(l *Learner, tr *Transition) float64 {
	if tr.Done {
		return tr.Reward
	}
	switch l.cfg.Algo {
	case DoubleDQN, DuelingDQN:
		_, argmax := l.online.Forward(tr.Next).Max()
		return tr.Reward + l.cfg.Gamma*l.target.Forward(tr.Next)[argmax]
	case DeepSARSA:
		return tr.Reward + l.cfg.Gamma*l.target.Forward(tr.Next)[tr.NextAction]
	default:
		maxQ, _ := l.target.Forward(tr.Next).Max()
		return tr.Reward + l.cfg.Gamma*maxQ
	}
}

// randomTransition draws a transition over a small label space, done
// about one time in five.
func randomTransition(rng *tensor.RNG, stateDim, actions int) Transition {
	state := func() []int {
		var s []int
		for j := 0; j < stateDim; j++ {
			if rng.Bool(0.15) {
				s = append(s, j)
			}
		}
		return s
	}
	tr := Transition{State: state(), Action: rng.Intn(actions), Reward: rng.Range(-1, 2)}
	if rng.Bool(0.2) {
		tr.Done = true
	} else {
		tr.Next, tr.NextAction = state(), rng.Intn(actions)
	}
	return tr
}

// checkMemoExact asserts that every current memo entry equals a fresh
// target forward of its slot's Next state, bit for bit, and returns
// how many entries are current.
func checkMemoExact(t *testing.T, l *Learner) int {
	t.Helper()
	current := 0
	for slot, gen := range l.memo.gen {
		if gen != l.targetGen {
			continue
		}
		current++
		var next []int
		if l.pbuf != nil {
			next = l.pbuf.data[slot].Next
		} else {
			next = l.buf.data[slot].Next
		}
		got := l.memo.q[slot*l.memo.width : (slot+1)*l.memo.width]
		want := l.target.Forward(next)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("slot %d: memo Q[%d] = %v, target forward gives %v", slot, i, got[i], want[i])
			}
		}
	}
	return current
}

// TestTargetMemoMatchesNoMemo trains every algorithm with uniform and
// prioritized replay, under hard syncs and under Polyak updates, once
// through TrainStep and once through the memo-free reference, and
// requires the same losses and online weights bit for bit after every
// step. The replay ring is small, so slots are overwritten many times.
func TestTargetMemoMatchesNoMemo(t *testing.T) {
	for _, algo := range Algorithms() {
		for _, prioritized := range []bool{false, true} {
			for _, tau := range []float64{0, 0.1} {
				cfg := LearnerConfig{
					Algo:            algo,
					StateDim:        24,
					Actions:         5,
					Hidden:          []int{12},
					BatchSize:       8,
					ReplayCapacity:  40,
					TargetSyncEvery: 7,
					WarmupSize:      16,
					TargetTau:       tau,
					Prioritized:     prioritized,
				}
				memo, ref := NewLearner(cfg, tensor.NewRNG(3)), NewLearner(cfg, tensor.NewRNG(3))
				env := tensor.NewRNG(4)
				reused := 0
				for step := 0; step < 400; step++ {
					tr := randomTransition(env, cfg.StateDim, cfg.Actions)
					memo.Observe(tr)
					ref.Observe(tr)
					if step%2 == 0 {
						continue
					}
					reused += checkMemoExact(t, memo)
					lm, lr := memo.TrainStep(), refTrainStep(ref)
					if math.Float64bits(lm) != math.Float64bits(lr) {
						t.Fatalf("%v prioritized=%v tau=%v step %d: loss %v, reference %v", algo, prioritized, tau, step, lm, lr)
					}
					pm, pr := memo.online.Params(), ref.online.Params()
					for i := range pm {
						for j := range pm[i].Val {
							if math.Float64bits(pm[i].Val[j]) != math.Float64bits(pr[i].Val[j]) {
								t.Fatalf("%v prioritized=%v tau=%v step %d: online param %d[%d] differs from the reference", algo, prioritized, tau, step, i, j)
							}
						}
					}
				}
				if tau == 0 && reused == 0 {
					t.Fatalf("%v prioritized=%v: no memo entry outlived a train step", algo, prioritized)
				}
			}
		}
	}
}
