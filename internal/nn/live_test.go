package nn

import (
	"math"
	"testing"

	"ams/internal/tensor"
)

// The tests in this file check that skipping the rows no backward pass
// has written (see Param) changes no bit of training: a network trained
// with row liveness must match one forced dense, which runs the plain
// element-by-element loops, in its weights, gradients and optimizer
// state.

// forceDense marks every row of every layer live, so the optimizers and
// ZeroGrad visit every element.
func forceDense(n *Net) {
	for _, l := range n.layers() {
		l.allLive = true
	}
}

// optState returns an optimizer's per-parameter state vectors.
func optState(o Optimizer) []tensor.Vec {
	switch o := o.(type) {
	case *Adam:
		return append(append([]tensor.Vec(nil), o.m...), o.v...)
	case *RMSProp:
		return o.cache
	case *SGD:
		return o.velocity
	}
	panic("unknown optimizer")
}

// checkDeadRowsZero asserts the liveness invariant: every element of a
// row not marked live has a +0 gradient and +0 optimizer state.
func checkDeadRowsZero(t *testing.T, n *Net, o Optimizer) {
	t.Helper()
	state, params := optState(o), n.Params()
	for i, p := range params {
		if p.Live == nil {
			continue
		}
		for r, live := range p.Live {
			if live {
				continue
			}
			for j := r * p.RowLen; j < (r+1)*p.RowLen; j++ {
				if math.Float64bits(p.Grad[j]) != 0 {
					t.Fatalf("param %d row %d: non-live gradient %v", i, r, p.Grad[j])
				}
				for k := i; k < len(state); k += len(params) {
					if state[k] != nil && math.Float64bits(state[k][j]) != 0 {
						t.Fatalf("param %d row %d: non-live optimizer state %v", i, r, state[k][j])
					}
				}
			}
		}
	}
}

func TestLiveRowTrainingMatchesDense(t *testing.T) {
	negZero := math.Copysign(0, -1)
	opts := []struct {
		name string
		new  func() Optimizer
	}{
		{"adam", func() Optimizer { return NewAdam(0.01) }},
		{"rmsprop", func() Optimizer { return NewRMSProp(0.01) }},
		{"sgd-momentum", func() Optimizer { return NewSGD(0.05, 0.9) }},
		// Epsilon 0 makes +0/+0 a NaN, so skipping is not exact and Adam
		// must fall back to updating every element.
		{"adam-eps0", func() Optimizer { o := NewAdam(0.01); o.Epsilon = 0; return o }},
		{"rmsprop-eps0", func() Optimizer { o := NewRMSProp(0.01); o.Epsilon = 0; return o }},
	}
	cfgs := []Config{
		{In: 300, Hidden: []int{16}, Out: 6, Dueling: true},
		{In: 300, Hidden: []int{12, 8}, Out: 5},
	}
	for _, oc := range opts {
		for ci, cfg := range cfgs {
			live := NewNet(cfg, tensor.NewRNG(uint64(21+ci)))
			// A -0 weight in every row: a skipped row must keep it, and
			// a dense SGD step turns it into +0.
			for j := 0; j < cfg.In; j++ {
				live.feature[0].W.Set(j, j%cfg.Hidden[0], negZero)
			}
			dense := live.Clone()
			forceDense(dense)
			optL, optD := oc.new(), oc.new()
			rng := tensor.NewRNG(uint64(31 + ci))
			dQ := tensor.NewVec(cfg.Out)
			sawDead := false
			for step := 0; step < 40; step++ {
				live.ZeroGrad()
				for _, p := range dense.Params() {
					p.Grad.Zero() // the reference clears every element itself
				}
				for s := 0; s < 4; s++ {
					active := randomActive(rng, cfg.In, rng.Intn(7))
					a := rng.Intn(cfg.Out)
					target := rng.Range(-1, 2)
					for _, n := range []*Net{live, dense} {
						q := n.Forward(active)
						_, g := HuberLoss(q[a], target, 1)
						dQ.Zero()
						dQ[a] = g / 4
						n.Backward(dQ)
					}
				}
				checkDeadRowsZero(t, live, optL)
				optL.Step(live)
				optD.Step(dense)
				checkDeadRowsZero(t, live, optL)
				pl, pd := live.Params(), dense.Params()
				for i := range pl {
					if !sameBits(pl[i].Val, pd[i].Val) || !sameBits(pl[i].Grad, pd[i].Grad) {
						t.Fatalf("%s cfg %d step %d: param %d differs from the dense reference", oc.name, ci, step, i)
					}
					if pl[i].Live != nil {
						for _, on := range pl[i].Live {
							sawDead = sawDead || !on
						}
					}
				}
				sl, sd := optState(optL), optState(optD)
				for i := range sl {
					if !sameBits(sl[i], sd[i]) {
						t.Fatalf("%s cfg %d step %d: optimizer state %d differs from the dense reference", oc.name, ci, step, i)
					}
				}
			}
			if !sawDead {
				t.Fatalf("%s cfg %d: every row went live at once; the test exercises no skipping", oc.name, ci)
			}
		}
	}
}

// TestLiveRowsMarkedByBackward pins which rows a backward pass marks:
// the sparse first layer marks exactly the active inputs it has seen,
// and a dense layer marks all of its rows at its first backward.
func TestLiveRowsMarkedByBackward(t *testing.T) {
	n := NewNet(Config{In: 20, Hidden: []int{8, 4}, Out: 3}, tensor.NewRNG(5))
	for i, p := range n.Params() {
		if lo, hi := p.liveSpan(0); p.Live != nil && lo < hi {
			t.Fatalf("param %d: fresh network has live elements [%d, %d)", i, lo, hi)
		}
	}
	dQ := tensor.Vec{0, 0.5, 0}
	for _, active := range [][]int{{2, 3}, {3, 11}} {
		n.Forward(active)
		n.Backward(dQ)
	}
	w0 := n.Params()[0]
	var spans [][2]int
	for lo, hi := w0.liveSpan(0); lo < hi; lo, hi = w0.liveSpan(hi) {
		spans = append(spans, [2]int{lo / w0.RowLen, hi / w0.RowLen})
	}
	if want := [][2]int{{2, 4}, {11, 12}}; len(spans) != len(want) || spans[0] != want[0] || spans[1] != want[1] {
		t.Fatalf("first-layer live row spans %v, want %v", spans, want)
	}
	for i, p := range n.Params()[1:] {
		if p.Live != nil {
			t.Fatalf("param %d: dense layer not fully live after backward", i+1)
		}
	}
}
