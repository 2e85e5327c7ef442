package sched

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// fuzzState reads a labeling state from b as 4-byte little-endian signed
// IDs (a short tail is dropped), so the fuzzer reaches IDs past 16 bits
// and negative ones.
func fuzzState(b []byte) []int {
	var state []int
	for ; len(b) >= 4; b = b[4:] {
		state = append(state, int(int32(binary.LittleEndian.Uint32(b))))
	}
	return state
}

// encodeState is the inverse of fuzzState for seeding.
func encodeState(state ...int) []byte {
	var b []byte
	for _, id := range state {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(id)))
	}
	return b
}

// FuzzStateKey checks that stateKey is injective: two states share a key
// exactly when they are the same ID sequence, and a key decodes back to
// its state. A collision would serve one state's Q-values for another.
func FuzzStateKey(f *testing.F) {
	for _, pair := range [][2][]int{
		{{65536}, {0}},
		{{1, 65537}, {65538}},
		{{1, 5, 9}, {1, 5}},
		{nil, {0}},
		{{3}, {3}},
		{{-1}, {1<<31 - 1}},
	} {
		f.Add(encodeState(pair[0]...), encodeState(pair[1]...))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, sb := fuzzState(a), fuzzState(b)
		ka := stateKey(nil, sa)
		kb := stateKey(nil, sb)
		if bytes.Equal(ka, kb) != slices.Equal(sa, sb) {
			t.Fatalf("states %v and %v: keys %x and %x", sa, sb, ka, kb)
		}
		var back []int
		for rest := ka; len(rest) > 0; {
			u, n := binary.Uvarint(rest)
			if n <= 0 {
				t.Fatalf("key %x of %v does not parse as uvarints", ka, sa)
			}
			back, rest = append(back, int(u)), rest[n:]
		}
		if !slices.Equal(back, sa) {
			t.Fatalf("key of %v decodes to %v", sa, back)
		}
	})
}
