package oracle

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"ams/internal/synth"
	"ams/internal/zoo"
)

// fuzzStore is a small store whose saved bytes seed FuzzLoadStore: two
// scenes, each model's output cut to its first two labels. Small seeds
// keep the fuzzer's minimization of new inputs quick.
var fuzzStore = func() *Store {
	st := Build(z, synth.NewDataset(vocab, synth.MSCOCO(), 2, 43).Scenes)
	for _, row := range st.outputs {
		for m := range row {
			row[m].Labels = row[m].Labels[:min(len(row[m].Labels), 2)]
		}
	}
	st.deriveValues()
	return st
}()

// FuzzLoadStore checks that Load never panics on arbitrary bytes, and
// that a store it accepts is usable and saves canonically: a tracker
// can execute every model on every scene, and saving, loading and
// saving again reproduces the same bytes.
func FuzzLoadStore(f *testing.F) {
	var v1, v0 bytes.Buffer
	if err := fuzzStore.Save(&v1); err != nil {
		f.Fatal(err)
	}
	if err := gob.NewEncoder(&v0).Encode(storeBlob{Scenes: fuzzStore.Scenes, Outputs: fuzzStore.outputs}); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v0.Bytes())
	f.Add([]byte("junk"))
	f.Add(append(append([]byte(nil), v1.Bytes()[:4]...), storeVersion+7))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data), z)
		if err != nil {
			return
		}
		for i := 0; i < st.NumScenes(); i++ {
			tr := NewTracker(st, i)
			for m := 0; m < st.NumModels(); m++ {
				tr.Execute(m)
			}
		}
		var once, twice bytes.Buffer
		if err := st.Save(&once); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(once.Bytes()), z)
		if err != nil {
			t.Fatalf("re-loading a saved store: %v", err)
		}
		if err := again.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("save → load → save changed the bytes")
		}
	})
}

// TestLoadRejectsOutOfRangeOutputs: a blob whose outputs name a label
// outside the vocabulary, or carry a confidence outside [0, 1], fails
// Load instead of panicking in a later tracker or valuing NaN.
func TestLoadRejectsOutOfRangeOutputs(t *testing.T) {
	for _, bad := range []zoo.LabelConf{
		{ID: -1, Conf: 0.9},
		{ID: vocab.Len(), Conf: 0.9},
		{ID: 3, Conf: math.NaN()},
		{ID: 3, Conf: 1.5},
		{ID: 3, Conf: -0.1},
	} {
		outputs := make([][]zoo.Output, len(fuzzStore.outputs))
		for i, row := range fuzzStore.outputs {
			outputs[i] = append([]zoo.Output(nil), row...)
		}
		outputs[1][2] = zoo.Output{Labels: []zoo.LabelConf{{ID: 0, Conf: 0.5}, bad}}
		var buf bytes.Buffer
		if err := writeHeader(&buf, storeMagic, storeVersion); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(&buf).Encode(storeBlob{Scenes: fuzzStore.Scenes, Outputs: outputs}); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf, z)
		if err == nil || !strings.Contains(err.Error(), "scene 1 model 2") {
			t.Fatalf("label %+v: Load error %v, want one naming scene 1 model 2", bad, err)
		}
	}
}
