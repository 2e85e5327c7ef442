package rl

import (
	"math"
	"testing"
	"testing/quick"

	"ams/internal/tensor"
)

func TestReplayBufferRing(t *testing.T) {
	b := NewReplayBuffer(3, tensor.NewRNG(1))
	for i := 0; i < 5; i++ {
		b.Add(Transition{Action: i})
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	// Oldest two (actions 0 and 1) must have been evicted.
	seen := map[int]bool{}
	dst := make([]Transition, 64)
	for _, tr := range b.SampleInto(dst, nil) {
		seen[tr.Action] = true
	}
	if seen[0] || seen[1] {
		t.Fatalf("evicted transitions still sampled: %v", seen)
	}
	for a := 2; a <= 4; a++ {
		if !seen[a] {
			t.Fatalf("action %d never sampled from full buffer", a)
		}
	}
}

func TestReplayBufferCopiesStates(t *testing.T) {
	b := NewReplayBuffer(2, tensor.NewRNG(1))
	state := []int{1, 2}
	b.Add(Transition{State: state})
	state[0] = 99
	dst := make([]Transition, 1)
	got := b.SampleInto(dst, nil)[0]
	if got.State[0] == 99 {
		t.Fatal("replay buffer aliases caller state slice")
	}
}

func TestReplayBufferEmptySample(t *testing.T) {
	b := NewReplayBuffer(2, tensor.NewRNG(1))
	if got := b.SampleInto(make([]Transition, 4), nil); len(got) != 0 {
		t.Fatalf("sample from empty buffer returned %d items", len(got))
	}
}

func TestReplayBufferZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity buffer did not panic")
		}
	}()
	NewReplayBuffer(0, tensor.NewRNG(1))
}

func TestEpsilonSchedule(t *testing.T) {
	s := EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 100}
	if got := s.At(0); got != 1 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := s.At(100); got != 0.1 {
		t.Fatalf("At(100) = %v", got)
	}
	if got := s.At(1000); got != 0.1 {
		t.Fatalf("At(1000) = %v", got)
	}
	mid := s.At(50)
	if math.Abs(mid-0.55) > 1e-12 {
		t.Fatalf("At(50) = %v, want 0.55", mid)
	}
	if got := s.At(-5); got != 1 {
		t.Fatalf("At(-5) = %v, want clamped Start", got)
	}
}

func TestEpsilonMonotoneProperty(t *testing.T) {
	s := EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 500}
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return s.At(x) >= s.At(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmStringRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("round trip failed for %v: %v %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("ParseAlgorithm accepted junk")
	}
}

func newTestLearner(algo Algorithm, seed uint64) *Learner {
	return NewLearner(LearnerConfig{
		Algo:            algo,
		StateDim:        6,
		Actions:         4,
		Hidden:          []int{16},
		Gamma:           0.9,
		LearningRate:    0.01,
		BatchSize:       8,
		ReplayCapacity:  256,
		TargetSyncEvery: 20,
		WarmupSize:      8,
	}, tensor.NewRNG(seed))
}

func TestSelectActionRestricted(t *testing.T) {
	l := newTestLearner(DQN, 2)
	for i := 0; i < 200; i++ {
		a := l.SelectAction([]int{0}, 1.0, []int{1, 3})
		if a != 1 && a != 3 {
			t.Fatalf("selected disallowed action %d", a)
		}
	}
	// Greedy also restricted.
	for i := 0; i < 50; i++ {
		a := l.SelectAction([]int{0}, 0.0, []int{2})
		if a != 2 {
			t.Fatalf("greedy selection ignored restriction: %d", a)
		}
	}
}

func TestSelectActionEmptyAllowedPanics(t *testing.T) {
	l := newTestLearner(DQN, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("empty allowed set did not panic")
		}
	}()
	l.SelectAction([]int{0}, 0.5, nil)
}

func TestTrainStepNoopUntilBatch(t *testing.T) {
	l := newTestLearner(DQN, 3)
	if loss := l.TrainStep(); loss != 0 {
		t.Fatalf("TrainStep on empty buffer returned %v", loss)
	}
	if l.TrainSteps() != 0 {
		t.Fatal("TrainSteps advanced without data")
	}
}

// bandit environment: state is empty; action 2 always pays 1, others 0.
// Every learner variant must discover this.
func TestLearnersSolveBandit(t *testing.T) {
	for _, algo := range Algorithms() {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			l := newTestLearner(algo, 7)
			for ep := 0; ep < 600; ep++ {
				a := l.SelectAction(nil, 0.3, []int{0, 1, 2, 3})
				r := 0.0
				if a == 2 {
					r = 1.0
				}
				l.Observe(Transition{State: nil, Action: a, Reward: r, Next: nil,
					NextAction: 0, Done: true})
				l.TrainStep()
			}
			q := l.QValues(nil)
			_, best := q.Max()
			if best != 2 {
				t.Fatalf("%v failed bandit: Q=%v", algo, q)
			}
		})
	}
}

// Two-step chain: from state {}, action 0 moves to state {label 1} with
// reward 0; from {1}, action 1 pays 1 and ends. Gamma discounts mean
// Q({},0) must approach gamma*1 and Q({1},1) approaches 1. This exercises
// bootstrapping through the target network for every variant.
func TestLearnersBootstrapChain(t *testing.T) {
	for _, algo := range Algorithms() {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			l := newTestLearner(algo, 11)
			rng := tensor.NewRNG(13)
			for ep := 0; ep < 900; ep++ {
				// Step 1 (from empty state).
				a1 := l.SelectAction(nil, 0.25, []int{0, 1, 2, 3})
				if a1 != 0 {
					// Wrong first move ends the episode with no reward.
					l.Observe(Transition{State: nil, Action: a1, Reward: 0, Done: true})
					l.TrainStep()
					continue
				}
				// Step 2 (from state {1}).
				a2 := l.SelectAction([]int{1}, 0.25, []int{0, 1, 2, 3})
				r2 := 0.0
				if a2 == 1 {
					r2 = 1.0
				}
				l.Observe(Transition{State: nil, Action: 0, Reward: 0,
					Next: []int{1}, NextAction: a2, Done: false})
				l.Observe(Transition{State: []int{1}, Action: a2, Reward: r2, Done: true})
				l.TrainStep()
				_ = rng
			}
			qs := l.QValues([]int{1}).Clone()
			_, best2 := qs.Max()
			if best2 != 1 {
				t.Fatalf("%v: second-step policy wrong, Q({1})=%v", algo, qs)
			}
			q0 := l.QValues(nil).Clone()
			if q0[0] < 0.3 {
				t.Fatalf("%v: no value propagated to first step, Q({})=%v", algo, q0)
			}
		})
	}
}

func TestDuelingUsesDuelingNet(t *testing.T) {
	l := newTestLearner(DuelingDQN, 5)
	if !l.Online().Dueling() {
		t.Fatal("DuelingDQN learner built a plain network")
	}
	l2 := newTestLearner(DoubleDQN, 5)
	if l2.Online().Dueling() {
		t.Fatal("DoubleDQN learner built a dueling network")
	}
}

func TestTargetSyncPeriod(t *testing.T) {
	l := newTestLearner(DQN, 9)
	for i := 0; i < 40; i++ {
		l.Observe(Transition{State: []int{i % 6}, Action: i % 4, Reward: 1, Done: true})
	}
	before := l.target.Forward([]int{0}).Clone()
	for i := 0; i < 19; i++ {
		l.TrainStep()
	}
	mid := l.target.Forward([]int{0}).Clone()
	for i := range before {
		if before[i] != mid[i] {
			t.Fatal("target network drifted before sync period")
		}
	}
	l.TrainStep() // 20th step triggers sync
	after := l.target.Forward([]int{0}).Clone()
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Fatal("target network did not sync at the configured period")
	}
}

func TestLearnerDefaults(t *testing.T) {
	l := NewLearner(LearnerConfig{Algo: DQN, StateDim: 4, Actions: 3}, tensor.NewRNG(1))
	cfg := l.Config()
	if cfg.Gamma != 0.9 || cfg.BatchSize != 32 || len(cfg.Hidden) != 1 || cfg.Hidden[0] != 256 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.WarmupSize != 16*cfg.BatchSize {
		t.Fatalf("warmup default wrong: %d", cfg.WarmupSize)
	}
}
