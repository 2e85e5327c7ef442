// Package nn implements the small feed-forward neural networks used as
// Q-value functions by the AMS reproduction: a multi-layer perceptron with
// ReLU activations, an optional dueling head (value + advantage streams),
// per-sample backpropagation with gradient accumulation, SGD/Adam/RMSProp
// optimizers, Huber and MSE losses, and gob persistence.
//
// The labeling state that feeds the network is a high-dimensional binary
// vector with very few active bits, so the first layer exposes a sparse
// forward/backward fast path indexed by the active positions.
package nn

import (
	"fmt"
	"math"

	"ams/internal/tensor"
)

// Linear is a fully connected layer out = W*x + b with gradient buffers.
//
// W is stored input-major, as an In x Out matrix whose row j holds the
// weights fed by input j. Every kernel then streams contiguous rows: the
// sparse first layer sums the rows of the active inputs, and a dense
// layer adds x_j times row j for each nonzero x_j (ReLU zeroes about
// half). Each output still adds its terms in input order from +0, so the
// results match an output-major W*x bit for bit.
type Linear struct {
	In, Out int
	W       *tensor.Mat // In x Out, input-major
	B       tensor.Vec  // Out
	GW      *tensor.Mat // gradient accumulator for W, same layout
	GB      tensor.Vec  // gradient accumulator for B

	// live marks the rows of GW a sparse backward pass has written since
	// the layer was built, and allLive records that a dense one has,
	// which counts as writing every row. A row that was never written
	// holds an exactly +0 gradient; see Param.Live.
	live    []bool
	allLive bool
}

// NewLinear returns a layer with He-uniform initialised weights, the
// standard choice for ReLU networks. The weights are drawn output by
// output, so a layer matches one built output-major from the same RNG.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid linear dimensions %dx%d", in, out))
	}
	l := &Linear{
		In:  in,
		Out: out,
		W:   tensor.NewMat(in, out),
		B:   tensor.NewVec(out),
		GW:  tensor.NewMat(in, out),
		GB:  tensor.NewVec(out),

		live: make([]bool, in),
	}
	bound := math.Sqrt(6.0 / float64(in))
	for i := 0; i < out; i++ {
		for j := 0; j < in; j++ {
			l.W.Set(j, i, rng.Range(-bound, bound))
		}
	}
	return l
}

// ForwardInto computes out = W*x + b.
func (l *Linear) ForwardInto(out, x tensor.Vec) {
	l.W.MulVecTransInto(out, x)
	out.Add(l.B)
}

// ForwardSparseInto computes out = (sum of W's rows j, j in active) + b;
// it is equivalent to ForwardInto with a binary input whose ones sit at
// active.
func (l *Linear) ForwardSparseInto(out tensor.Vec, active []int) {
	l.W.SumRowsSparseInto(out, active)
	out.Add(l.B)
}

// BackwardDense accumulates gradients given the input x that produced the
// last forward pass and the gradient dOut of the loss w.r.t. this layer's
// output. It returns (into dIn, if non-nil) the gradient w.r.t. x.
func (l *Linear) BackwardDense(dIn, dOut, x tensor.Vec) {
	l.allLive = true
	l.GW.AddOuter(1, x, dOut)
	l.GB.Add(dOut)
	if dIn != nil {
		l.W.MulVecInto(dIn, dOut)
	}
}

// BackwardSparse accumulates gradients for a binary sparse input: the
// weight gradient only touches the active inputs' rows, and no input
// gradient is produced (the input is data, not a learnable activation).
func (l *Linear) BackwardSparse(dOut tensor.Vec, active []int) {
	for _, j := range active {
		l.live[j] = true
		l.GW.Row(j).Add(dOut)
	}
	l.GB.Add(dOut)
}

// wireWeights returns W in the output-major wire layout (row i holds the
// weights feeding output i).
func (l *Linear) wireWeights() []float64 {
	w := make([]float64, 0, l.In*l.Out)
	for i := 0; i < l.Out; i++ {
		for j := 0; j < l.In; j++ {
			w = append(w, l.W.At(j, i))
		}
	}
	return w
}

// setWireWeights loads W from the output-major wire layout.
func (l *Linear) setWireWeights(w []float64) {
	for i := 0; i < l.Out; i++ {
		for j := 0; j < l.In; j++ {
			l.W.Set(j, i, w[i*l.In+j])
		}
	}
}

// ZeroGrad clears the accumulated gradients. Rows no backward pass has
// written are already +0 and are skipped.
func (l *Linear) ZeroGrad() {
	w := l.weights()
	for lo, hi := w.liveSpan(0); lo < hi; lo, hi = w.liveSpan(hi) {
		w.Grad[lo:hi].Zero()
	}
	l.GB.Zero()
}

// weights returns the (value, gradient) view of W with its row liveness.
func (l *Linear) weights() Param {
	p := Param{Val: l.W.Data, Grad: l.GW.Data}
	if !l.allLive {
		p.Live, p.RowLen = l.live, l.Out
	}
	return p
}

// Params appends this layer's (value, gradient) pairs to dst.
func (l *Linear) Params(dst []Param) []Param {
	return append(dst, l.weights(), Param{Val: l.B, Grad: l.GB})
}

// Param is a flattened view of one parameter tensor and its gradient.
//
// Live, when non-nil, splits Val into rows of RowLen elements and marks
// the rows whose gradient may have been nonzero since the network was
// built; a nil Live marks every element. An unmarked element's gradient
// is +0 and has only ever been +0, so an optimizer whose state starts
// at +0 and whose update maps a +0 gradient and +0 state to an
// unchanged value and +0 state may skip it: the skipped update is an
// exact no-op. Marking a row early is always safe.
type Param struct {
	Val  tensor.Vec
	Grad tensor.Vec

	Live   []bool
	RowLen int
}

// liveSpan returns the first run [lo, hi) of live elements at or after
// from, which must be a row boundary; lo == hi once none is left.
func (p Param) liveSpan(from int) (lo, hi int) {
	if p.Live == nil {
		return from, len(p.Val)
	}
	r := from / p.RowLen
	for r < len(p.Live) && !p.Live[r] {
		r++
	}
	lo = r * p.RowLen
	for r < len(p.Live) && p.Live[r] {
		r++
	}
	return lo, r * p.RowLen
}
