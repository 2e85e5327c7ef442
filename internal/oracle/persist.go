package oracle

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"

	"ams/internal/synth"
	"ams/internal/zoo"
)

// storeBlob is the gob wire format of a Store. Only the scenes and raw
// outputs travel; the derived valuation tables are rebuilt on load so a
// store saved under one profit configuration cannot silently leak stale
// values into another.
type storeBlob struct {
	Scenes  []synth.Scene
	Outputs [][]zoo.Output
}

// The persisted-store header: a magic tag plus a format version byte, so
// a future wire-format change fails loudly ("written by version N") at
// load time instead of gob-decoding garbage. Version 0 is the historical
// headerless format (a bare gob stream), which Load still accepts.
var storeMagic = [4]byte{'A', 'M', 'S', 'B'}

const storeVersion = 1

// writeHeader emits a magic+version header for one of the oracle's gob
// container formats (the store blob here, the corpus journal and
// snapshot formats reuse the same shape with their own magic).
func writeHeader(w io.Writer, magic [4]byte, version byte) error {
	_, err := w.Write(append(magic[:len(magic):len(magic)], version))
	return err
}

// readHeader consumes a magic+version header from br if one is present,
// returning the version. A stream that does not start with the magic is
// reported as version 0 with nothing consumed — the legacy headerless
// format.
func readHeader(br *bufio.Reader, magic [4]byte) (byte, error) {
	head, err := br.Peek(len(magic) + 1)
	if err != nil || !bytes.Equal(head[:len(magic)], magic[:]) {
		return 0, nil //nolint:nilerr // short/unmatched stream: legacy v0
	}
	if _, err := br.Discard(len(magic) + 1); err != nil {
		return 0, err
	}
	return head[len(magic)], nil
}

// Save writes the store's ground truth to w. The zoo itself is not
// serialized: the loader must supply an identical registry (enforced by
// the output shape check on load).
func (st *Store) Save(w io.Writer) error {
	if err := writeHeader(w, storeMagic, storeVersion); err != nil {
		return fmt.Errorf("oracle: save store: %w", err)
	}
	blob := storeBlob{Scenes: st.Scenes, Outputs: st.outputs}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("oracle: save store: %w", err)
	}
	return nil
}

// Load reads a store previously written with Save and re-derives the
// valuation tables against the provided zoo (label profits are read from
// the zoo's vocabulary at load time). Both the current versioned format
// and the historical headerless (v0) gob stream are accepted; a header
// with an unknown version fails loudly.
func Load(r io.Reader, z *zoo.Zoo) (*Store, error) {
	br := bufio.NewReader(r)
	version, err := readHeader(br, storeMagic)
	if err != nil {
		return nil, fmt.Errorf("oracle: load store: %w", err)
	}
	if version > storeVersion {
		return nil, fmt.Errorf("oracle: load store: format version %d is newer than this build supports (%d)",
			version, storeVersion)
	}
	var blob storeBlob
	if err := gob.NewDecoder(br).Decode(&blob); err != nil {
		return nil, fmt.Errorf("oracle: load store: %w", err)
	}
	if len(blob.Scenes) == 0 || len(blob.Scenes) != len(blob.Outputs) {
		return nil, fmt.Errorf("oracle: load store: inconsistent blob (%d scenes, %d output rows)",
			len(blob.Scenes), len(blob.Outputs))
	}
	for i, row := range blob.Outputs {
		if len(row) != len(z.Models) {
			return nil, fmt.Errorf("oracle: load store: scene %d has %d model outputs, zoo has %d",
				i, len(row), len(z.Models))
		}
		for m, out := range row {
			for _, lc := range out.Labels {
				if lc.ID < 0 || lc.ID >= z.Vocab.Len() || !(lc.Conf >= 0 && lc.Conf <= 1) {
					return nil, fmt.Errorf("oracle: load store: scene %d model %d emits label %d at confidence %v, outside the vocabulary or [0, 1]",
						i, m, lc.ID, lc.Conf)
				}
			}
		}
	}
	st := &Store{
		Zoo:        z,
		Scenes:     blob.Scenes,
		outputs:    blob.Outputs,
		truths:     make([]Truth, len(blob.Scenes)),
		modelValue: make([][]float64, len(blob.Scenes)),
	}
	st.deriveValues()
	return st, nil
}

// deriveValues recomputes the per-scene valuation tables from the stored
// raw outputs.
func (st *Store) deriveValues() {
	for i := range st.Scenes {
		st.truths[i], st.modelValue[i] = deriveTruth(st.Zoo, st.outputs[i])
	}
}

// deriveTruth reduces one item's full set of model outputs to its ground
// truth and per-model static values. It is the single valuation rule
// shared by the precomputed Store and DeriveTruth's on-demand path.
func deriveTruth(z *zoo.Zoo, outputs []zoo.Output) (Truth, []float64) {
	modelValue := make([]float64, len(z.Models))
	lv := make(map[int]float64)
	for mi := range z.Models {
		for _, lc := range outputs[mi].Labels {
			if lc.Conf < zoo.ValuableThreshold {
				continue
			}
			v := z.Vocab.Label(lc.ID).Profit * lc.Conf
			modelValue[mi] += v
			if v > lv[lc.ID] {
				lv[lc.ID] = v
			}
		}
	}
	// Sum in sorted label order so the total is bit-identical across
	// runs (map iteration order is randomized).
	ids := make([]int, 0, len(lv))
	for id := range lv {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var total float64
	for _, id := range ids {
		total += lv[id]
	}
	return Truth{LabelValue: lv, TotalValue: total}, modelValue
}

// SaveFile writes the store to the named file.
func (st *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("oracle: save store: %w", err)
	}
	if err := st.Save(f); err != nil {
		_ = f.Close()
		return err
	}
	// A store that vanishes on power loss silently re-queries the oracle
	// on the next run, so surface fsync and close failures to the caller
	// instead of pretending the save landed.
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("oracle: sync store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("oracle: close store: %w", err)
	}
	return nil
}

// LoadFile reads a store from the named file.
func LoadFile(path string, z *zoo.Zoo) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("oracle: load store: %w", err)
	}
	defer f.Close()
	return Load(f, z)
}
