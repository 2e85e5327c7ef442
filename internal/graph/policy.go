package graph

import (
	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/zoo"
)

// flight tracks selections whose completion has not been observed yet,
// the bookkeeping sim.Policy requires for parallel execution.
type flight map[int]bool

func (f flight) has(m int) bool { return f[m] }

// ValuePolicy schedules models by descending expected value under the
// graph belief — a DRL-free counterpart of the Q-greedy policy. It
// implements sim.Policy.
type ValuePolicy struct {
	g      *Graph
	z      *zoo.Zoo
	belief *Belief
	fly    flight
}

// NewValuePolicy returns a fresh graph-driven policy.
func NewValuePolicy(g *Graph, z *zoo.Zoo) *ValuePolicy { return &ValuePolicy{g: g, z: z} }

// Name implements sim.Policy.
func (p *ValuePolicy) Name() string { return "Graph" }

// Reset implements sim.Policy.
func (p *ValuePolicy) Reset(int) {
	p.belief = p.g.NewBelief()
	p.fly = flight{}
}

// Next implements sim.Policy.
func (p *ValuePolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	best, bestV := -1, 0.0
	for m := range t.UnexecutedSeq() {
		if p.fly.has(m) || !c.Allows(p.z.Models[m]) {
			continue
		}
		v := p.belief.ExpectedValue(m)
		if best < 0 || v > bestV {
			best, bestV = m, v
		}
	}
	if best >= 0 {
		p.fly[best] = true
	}
	return best
}

// Observe implements sim.Policy: the model was valuable when it
// emitted any label at or above the threshold.
func (p *ValuePolicy) Observe(m int, out zoo.Output) {
	delete(p.fly, m)
	p.belief.Observe(m, out.Value(zoo.ValuableThreshold) > 0)
}

// DensityPolicy is the graph analogue of Algorithm 1: expected value per
// unit time among models that still fit the budget. It implements
// sim.Policy.
type DensityPolicy struct {
	g      *Graph
	z      *zoo.Zoo
	belief *Belief
	fly    flight
}

// NewDensityPolicy returns the graph-driven cost-aware policy.
func NewDensityPolicy(g *Graph, z *zoo.Zoo) *DensityPolicy {
	return &DensityPolicy{g: g, z: z}
}

// Name implements sim.Policy.
func (p *DensityPolicy) Name() string { return "Graph" }

// Reset implements sim.Policy.
func (p *DensityPolicy) Reset(int) {
	p.belief = p.g.NewBelief()
	p.fly = flight{}
}

// Next implements sim.Policy.
func (p *DensityPolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	best, bestD := -1, 0.0
	for m := range t.UnexecutedSeq() {
		if p.fly.has(m) {
			continue
		}
		mod := p.z.Models[m]
		if !c.Allows(mod) {
			continue
		}
		d := p.belief.ExpectedValue(m) / mod.TimeMS
		if best < 0 || d > bestD {
			best, bestD = m, d
		}
	}
	if best >= 0 {
		p.fly[best] = true
	}
	return best
}

// Observe implements sim.Policy.
func (p *DensityPolicy) Observe(m int, out zoo.Output) {
	delete(p.fly, m)
	p.belief.Observe(m, out.Value(zoo.ValuableThreshold) > 0)
}
