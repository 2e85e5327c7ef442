package nn

import (
	"math"

	"ams/internal/tensor"
)

// Optimizer applies accumulated gradients to a network's parameters.
// Implementations hold per-parameter state (momenta) keyed by position in
// the network's Params() slice, so an optimizer must be used with a single
// network for its whole life.
type Optimizer interface {
	// Step applies one update using the gradients currently accumulated in
	// the network and then leaves the gradients untouched (callers usually
	// ZeroGrad afterwards).
	Step(n *Net)
}

// SGD is stochastic gradient descent with optional classical momentum.
// It updates every element, live or not (see Param): with a +0 gradient
// and +0 velocity its step adds +0, which turns a -0 weight into +0, so
// skipping an element would not be exact.
type SGD struct {
	LR       float64
	Momentum float64
	velocity []tensor.Vec
}

// NewSGD returns an SGD optimizer with the given learning rate and
// momentum coefficient (0 disables momentum).
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step implements Optimizer.
func (o *SGD) Step(n *Net) {
	params := n.Params()
	if o.velocity == nil {
		o.velocity = makeState(params)
	}
	for i, p := range params {
		v := o.velocity[i]
		for j := range p.Val {
			v[j] = o.Momentum*v[j] - o.LR*p.Grad[j]
			p.Val[j] += v[j]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba, 2015).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m []tensor.Vec
	v []tensor.Vec
}

// NewAdam returns an Adam optimizer with standard defaults for the moment
// coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step implements Optimizer. It visits live elements only (see Param),
// unless a probe shows skipping is not exact (see zeroStepIsNoop): for a
// +0 gradient with +0 moments, m and v stay +0, mhat and vhat are
// +0, and the weight loses LR*(+0)/(sqrt(+0)+Epsilon) = +0, which leaves
// every value, -0 included, unchanged.
func (o *Adam) Step(n *Net) {
	params := n.Params()
	if o.m == nil {
		o.m = makeState(params)
		o.v = makeState(params)
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	e := zeroProbe()
	o.update(e[0:1], e[1:2], e[2:3], e[3:4], bc1, bc2)
	dense := !zeroStepIsNoop(e)
	for i, p := range params {
		if dense {
			p.Live = nil
		}
		for lo, hi := p.liveSpan(0); lo < hi; lo, hi = p.liveSpan(hi) {
			o.update(p.Val[lo:hi], p.Grad[lo:hi], o.m[i][lo:hi], o.v[i][lo:hi], bc1, bc2)
		}
	}
}

// update applies one Adam step to a run of elements, given the step's
// bias corrections.
func (o *Adam) update(val, grad, m, v tensor.Vec, bc1, bc2 float64) {
	grad, m, v = grad[:len(val)], m[:len(val)], v[:len(val)]
	for j := range val {
		g := grad[j]
		m[j] = o.Beta1*m[j] + (1-o.Beta1)*g
		v[j] = o.Beta2*v[j] + (1-o.Beta2)*g*g
		mhat := m[j] / bc1
		vhat := v[j] / bc2
		val[j] -= o.LR * mhat / (math.Sqrt(vhat) + o.Epsilon)
	}
}

// RMSProp is the RMSProp optimizer used by the original DQN paper.
type RMSProp struct {
	LR      float64
	Decay   float64
	Epsilon float64

	cache []tensor.Vec
}

// NewRMSProp returns an RMSProp optimizer with the DQN-standard decay.
func NewRMSProp(lr float64) *RMSProp {
	return &RMSProp{LR: lr, Decay: 0.95, Epsilon: 1e-6}
}

// Step implements Optimizer. It visits live elements only (see Param),
// unless a probe shows skipping is not exact (see zeroStepIsNoop): for a
// +0 gradient with a +0 cache, the cache stays +0 and the weight
// loses LR*(+0)/(sqrt(+0)+Epsilon) = +0, which leaves it unchanged.
func (o *RMSProp) Step(n *Net) {
	params := n.Params()
	if o.cache == nil {
		o.cache = makeState(params)
	}
	e := zeroProbe()
	o.update(e[0:1], e[1:2], e[2:3])
	dense := !zeroStepIsNoop(e)
	for i, p := range params {
		if dense {
			p.Live = nil
		}
		for lo, hi := p.liveSpan(0); lo < hi; lo, hi = p.liveSpan(hi) {
			o.update(p.Val[lo:hi], p.Grad[lo:hi], o.cache[i][lo:hi])
		}
	}
}

// update applies one RMSProp step to a run of elements.
func (o *RMSProp) update(val, grad, c tensor.Vec) {
	grad, c = grad[:len(val)], c[:len(val)]
	for j := range val {
		g := grad[j]
		c[j] = o.Decay*c[j] + (1-o.Decay)*g*g
		val[j] -= o.LR * g / (math.Sqrt(c[j]) + o.Epsilon)
	}
}

// zeroProbe returns one element to run an optimizer update on: a -0
// value, a +0 gradient and two +0 state slots, in that order.
func zeroProbe() [4]float64 { return [4]float64{math.Copysign(0, -1)} }

// zeroStepIsNoop reports whether a zeroProbe element came back from one
// update bit for bit unchanged. That is what skipping the elements a
// Param does not mark live assumes. It holds for any finite LR >= 0
// with Epsilon > 0 (and, for Adam, Beta1 != 1); under a degenerate
// setting such as Epsilon = 0, where +0/+0 is NaN, the optimizers
// update every element, as a dense loop would.
func zeroStepIsNoop(e [4]float64) bool {
	want := zeroProbe()
	for i := range e {
		if math.Float64bits(e[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

func makeState(params []Param) []tensor.Vec {
	st := make([]tensor.Vec, len(params))
	for i, p := range params {
		st[i] = tensor.NewVec(len(p.Val))
	}
	return st
}
