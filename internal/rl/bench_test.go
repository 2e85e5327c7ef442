package rl

import (
	"testing"

	"ams/internal/tensor"
)

// BenchmarkTrainStep times one minibatch update of an agent-shaped
// DuelingDQN learner (1104 labels, one hidden layer of 256, 31 actions,
// the default batch, sync period and replay) over a warm buffer. The
// buffer's 1700 transitions, a quarter of them terminal, and the 400
// labels its states draw from are close to what training an agent on
// 300 MSCOCO images for 2 epochs sees: 1723 transitions, with about a
// third of the parameters live.
func BenchmarkTrainStep(b *testing.B) {
	const labels, vocab, actions = 1104, 400, 31
	l := NewLearner(LearnerConfig{Algo: DuelingDQN, StateDim: labels, Actions: actions}, tensor.NewRNG(1))
	rng := tensor.NewRNG(2)
	state := func() []int {
		s := make([]int, 0, 24)
		for len(s) < cap(s) {
			s = append(s, rng.Intn(vocab))
		}
		return s
	}
	for i := 0; i < 1700; i++ {
		l.Observe(Transition{State: state(), Action: rng.Intn(actions), Reward: rng.Range(-1, 2),
			Next: state(), NextAction: rng.Intn(actions), Done: rng.Bool(0.25)})
	}
	for i := 0; i < 100; i++ {
		l.TrainStep()
	}
	b.ReportAllocs()
	for b.Loop() {
		l.TrainStep()
	}
}
