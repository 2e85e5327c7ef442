package rl

import (
	"slices"

	"ams/internal/nn"
	"ams/internal/tensor"
)

// targetMemo caches, per replay slot, the target network's Q-vector for
// the slot's Next state. The target network is a pure function of its
// weights, which change only at a sync or soft update, so a cached
// vector stays exact until then. Each entry carries the generation of
// the target weights it was computed under; the learner moves its
// generation on every change to them, which invalidates every entry at
// once, and clears an entry when Observe overwrites its slot.
type targetMemo struct {
	width int       // Q-vector length (number of actions)
	q     []float64 // width values per slot
	gen   []uint64  // generation of each slot's q; 0 marks no entry
}

// clear drops slot's entry, first growing the memo to cover slot.
// Buffers fill their slots in order, so the memo grows with the
// buffer rather than being sized to its capacity up front.
func (m *targetMemo) clear(slot int) {
	if n := slot + 1 - len(m.gen); n > 0 {
		m.gen = slices.Grow(m.gen, n)[:slot+1]
		m.q = slices.Grow(m.q, n*m.width)[:(slot+1)*m.width]
	}
	m.gen[slot] = 0
}

// get returns target.Forward(next) for the transition in slot, with
// gen the generation of target's weights. It runs the network only
// when the slot's entry is stale. The returned vector aliases the memo.
func (m *targetMemo) get(slot int, gen uint64, target *nn.Net, next []int) tensor.Vec {
	q := m.q[slot*m.width : (slot+1)*m.width]
	if m.gen[slot] != gen {
		copy(q, target.Forward(next))
		m.gen[slot] = gen
	}
	return q
}
