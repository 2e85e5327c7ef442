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
