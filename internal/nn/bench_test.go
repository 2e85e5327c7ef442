package nn

import (
	"testing"

	"ams/internal/tensor"
)

// benchNet returns a network at the AMS agent's shape: 1104 labels in,
// one hidden layer of 256, 30 models out, dueling heads. It also
// returns a 24-label state, a typical mid-schedule observation.
func benchNet() (*Net, []int) {
	n := NewNet(Config{In: 1104, Hidden: []int{256}, Out: 30, Dueling: true}, tensor.NewRNG(1))
	return n, randomActive(tensor.NewRNG(2), 1104, 24)
}

func BenchmarkNetForward(b *testing.B) {
	n, active := benchNet()
	b.ReportAllocs()
	for b.Loop() {
		n.Forward(active)
	}
}

// BenchmarkNetBackward times one training sample: the forward pass it
// needs plus the backward pass of a one-hot TD gradient.
func BenchmarkNetBackward(b *testing.B) {
	n, active := benchNet()
	dQ := tensor.NewVec(n.Out())
	dQ[3] = 0.25
	b.ReportAllocs()
	for b.Loop() {
		n.Forward(active)
		n.Backward(dQ)
	}
}

// BenchmarkAdamStep times one Adam update of the agent-shaped network.
// Backward passes over 20 random 24-label states first leave about a
// third of the first layer's rows live, the average live fraction over
// the training of an agent on 300 MSCOCO images for 2 epochs.
func BenchmarkAdamStep(b *testing.B) {
	n, _ := benchNet()
	rng := tensor.NewRNG(3)
	dQ := tensor.NewVec(n.Out())
	dQ[3] = 0.25
	for i := 0; i < 20; i++ {
		n.Forward(randomActive(rng, n.In(), 24))
		n.Backward(dQ)
	}
	opt := NewAdam(3e-4)
	opt.Step(n) // allocate the moments
	b.ReportAllocs()
	for b.Loop() {
		opt.Step(n)
	}
}
