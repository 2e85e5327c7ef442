package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/synth"
)

// TestTrainSaveBytesPinned trains small agents through every algorithm,
// both replay buffers and both target-maintenance modes, and pins the
// SHA-256 of their saved bytes. Any change to what training computes,
// from the environment loop through the learner to the optimizer, moves
// the hash; a change that only skips work whose result is known leaves
// it in place. The hash is pinned for amd64, like the network's own
// pin in internal/nn.
func TestTrainSaveBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash pinned for amd64 floating-point rounding")
	}
	const want = "d3a0994740ca636dca710e14537b078ca884d2b64741608a914fe4d3dcf7553d"
	store := oracle.Build(z, synth.NewDataset(vocab, synth.MSCOCO(), 50, 211).Scenes)
	h := sha256.New()
	for _, tc := range []struct {
		algo        rl.Algorithm
		prioritized bool
		tau         float64
	}{
		{rl.DQN, false, 0},
		{rl.DoubleDQN, true, 0},
		{rl.DuelingDQN, false, 0},
		{rl.DeepSARSA, false, 0.05},
		{rl.DuelingDQN, true, 0.05},
	} {
		cfg := tinyTrainConfig(tc.algo)
		cfg.Epochs = 3
		cfg.ReplayCapacity = 300
		cfg.TargetSyncEvery = 40
		cfg.Prioritized = tc.prioritized
		cfg.TargetTau = tc.tau
		if err := Train(store, cfg).Save(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("trained agents' bytes hash %s, want %s", got, want)
	}
}
