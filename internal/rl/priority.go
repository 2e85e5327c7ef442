package rl

import (
	"math"

	"ams/internal/tensor"
)

// PrioritizedBuffer is a proportional prioritized experience replay
// buffer (Schaul et al., 2016): transitions are sampled with probability
// proportional to priority^alpha, where priority tracks the last observed
// absolute TD error. It is an optional extension — the paper's agents use
// uniform replay — exposed through LearnerConfig.Prioritized.
//
// The implementation uses a sum-tree over a ring of transitions so both
// updates and samples are O(log n).
type PrioritizedBuffer struct {
	capacity int
	alpha    float64
	eps      float64

	data []Transition
	pos  int
	size int

	tree []float64 // binary sum-tree, leaves at [capacity-1, 2*capacity-1)
	max  float64   // running max priority for fresh transitions

	rng *tensor.RNG
}

// NewPrioritizedBuffer returns a buffer with the given capacity and
// priority exponent alpha (0 = uniform).
func NewPrioritizedBuffer(capacity int, alpha float64, rng *tensor.RNG) *PrioritizedBuffer {
	if capacity <= 0 {
		panic("rl: prioritized buffer capacity must be positive")
	}
	// Round capacity up to a power of two for a clean tree layout.
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &PrioritizedBuffer{
		capacity: c,
		alpha:    alpha,
		eps:      1e-3,
		data:     make([]Transition, c),
		tree:     make([]float64, 2*c),
		max:      1,
		rng:      rng,
	}
}

// Len returns the number of stored transitions.
func (b *PrioritizedBuffer) Len() int { return b.size }

// Add stores a transition at the running maximum priority so it is
// sampled at least once soon, and returns the slot it wrote.
func (b *PrioritizedBuffer) Add(tr Transition) int {
	tr.State = append([]int(nil), tr.State...)
	tr.Next = append([]int(nil), tr.Next...)
	slot := b.pos
	b.data[slot] = tr
	b.setPriority(slot, b.max)
	b.pos = (b.pos + 1) % b.capacity
	if b.size < b.capacity {
		b.size++
	}
	return slot
}

// setPriority writes p^alpha into the leaf and repairs the path up.
func (b *PrioritizedBuffer) setPriority(idx int, p float64) {
	leaf := b.capacity - 1 + idx
	v := math.Pow(p+b.eps, b.alpha)
	delta := v - b.tree[leaf]
	for i := leaf; ; i = (i - 1) / 2 {
		b.tree[i] += delta
		if i == 0 {
			break
		}
	}
}

// Sample draws n transitions proportional to priority, returning the
// transitions and their buffer indices (for UpdatePriorities).
func (b *PrioritizedBuffer) Sample(n int) ([]Transition, []int) {
	if b.size == 0 {
		return nil, nil
	}
	trs := make([]Transition, n)
	idxs := make([]int, n)
	total := b.tree[0]
	for i := 0; i < n; i++ {
		x := b.rng.Float64() * total
		node := 0
		for node < b.capacity-1 {
			left := 2*node + 1
			if x < b.tree[left] {
				node = left
			} else {
				x -= b.tree[left]
				node = left + 1
			}
		}
		idx := node - (b.capacity - 1)
		if idx >= b.size {
			// Unfilled leaf (zero priority paths cannot reach here unless
			// the tree is sparse); clamp to a valid slot.
			idx = b.rng.Intn(b.size)
		}
		trs[i] = b.data[idx]
		idxs[i] = idx
	}
	return trs, idxs
}

// UpdatePriorities records the new absolute TD errors of sampled
// transitions.
func (b *PrioritizedBuffer) UpdatePriorities(idxs []int, tdErrs []float64) {
	for i, idx := range idxs {
		p := math.Abs(tdErrs[i])
		if p > b.max {
			b.max = p
		}
		b.setPriority(idx, p)
	}
}

// Total returns the tree mass (for tests).
func (b *PrioritizedBuffer) Total() float64 { return b.tree[0] }
