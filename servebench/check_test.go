package main

import (
	"context"
	"math"
	"strconv"
	"testing"

	"ams"
	"ams/internal/oracle"
)

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func labeled(id int, models ...string) *ams.Result {
	return &ams.Result{
		Image: id % 3, ItemID: strconv.Itoa(id), ModelsRun: models, TimeSec: 0.1,
		Labels:    []ams.OutputLabel{{Name: "dog", Task: "object", Confidence: 0.9, Valuable: true}},
		HasRecall: true,
	}
}

// cleanRound is a round of n results that passes every check of w.
func cleanRound(w workload, n int) ([]ams.Item, *roundRun) {
	run := &roundRun{sent: n, results: make([]*ams.Result, n)}
	run.stats.Completed = int64(n)
	for i := range run.results {
		run.results[i] = labeled(i, "a", "b")
		run.results[i].HasRecall = !w.external
	}
	if w.corpus != nil {
		run.corpus.Committed = n
		rec := &ams.ReplayReport{}
		for _, r := range run.results {
			c := *r
			c.Labels = append([]ams.OutputLabel(nil), r.Labels...)
			rec.Recovered = append(rec.Recovered, &c)
		}
		run.recovery = &recoveryRun{report: rec}
	}
	return make([]ams.Item, n), run
}

func TestCleanRoundsPass(t *testing.T) {
	for _, name := range workloadNames {
		w := mustWorkload(t, name)
		c := &checker{w: w}
		if w.name == "deadline-cpu" {
			c.expected = map[int]*ams.Result{0: labeled(0, "a", "b"), 1: labeled(1, "a", "b"), 2: labeled(2, "a", "b")}
		}
		items, run := cleanRound(w, 6)
		c.checkRound(items, run)
		if c.failed != 0 {
			t.Errorf("%s: clean round failed %d checks: %v", name, c.failed, c.failures)
		}
	}
}

// Each corruption of a clean round is counted as exactly one failure.
func TestCorruptedResultsFail(t *testing.T) {
	cases := []struct {
		workload string
		corrupt  func(*roundRun)
	}{
		{"deadline-cpu", func(r *roundRun) { r.results[1].ModelsRun = append(r.results[1].ModelsRun, "extra") }},
		{"deadline-cpu", func(r *roundRun) { r.results[2].Labels[0].Confidence = 0.8 }},
		{"deadline-cpu", func(r *roundRun) { r.results[4] = nil }},
		{"deadline-cpu", func(r *roundRun) { r.dups = 1 }},
		{"memory-packed", func(r *roundRun) { r.results[0].ModelsRun = []string{"a", "b", "a"} }},
		{"memory-packed", func(r *roundRun) { r.results[3].TimeSec = 0.81 }},
		{"memory-packed", func(r *roundRun) { r.stats.PeakMemMB = 2049 }},
		{"memory-packed", func(r *roundRun) {
			r.stats.PerShard = []ams.ShardServeStats{{Shard: 0, PeakMemMB: 1100}, {Shard: 1}}
		}},
		{"memory-packed", func(r *roundRun) { r.stats.Completed++ }},
		{"ingest-durable", func(r *roundRun) { r.corpus.Committed-- }},
		{"ingest-durable", func(r *roundRun) {
			r.recovery.report.Relabeled = append(r.recovery.report.Relabeled, r.recovery.report.Recovered[0])
		}},
		{"ingest-durable", func(r *roundRun) { r.recovery.inferences = 3 }},
		{"ingest-durable", func(r *roundRun) { r.recovery.report.Recovered[5].Labels[0].Name = "cat" }},
		{"ingest-durable", func(r *roundRun) { r.results[0].HasRecall = true }},
		{"ingest-durable", func(r *roundRun) { r.residentPeak = 513 }},
	}
	for i, tc := range cases {
		w := mustWorkload(t, tc.workload)
		c := &checker{w: w}
		if w.name == "deadline-cpu" {
			c.expected = map[int]*ams.Result{0: labeled(0, "a", "b"), 1: labeled(1, "a", "b"), 2: labeled(2, "a", "b")}
		}
		items, run := cleanRound(w, 6)
		tc.corrupt(run)
		c.checkRound(items, run)
		if c.failed != 1 {
			t.Errorf("case %d (%s): %d failures %v, want 1", i, tc.workload, c.failed, c.failures)
		}
	}
}

// recallOf, computed from delivered labels alone, reproduces the recall
// the tracker reports for test items.
func TestRecallOfMatchesTracker(t *testing.T) {
	sys, err := ams.New(ams.Config{Dataset: ams.DatasetMSCOCO, NumImages: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, test := sys.Dataset.Split(0.2)
	store := oracle.Build(sys.Zoo, test)
	ids := labelIDs(sys)
	for i := 0; i < sys.NumTestImages(); i++ {
		r, err := sys.LabelRandom(context.Background(), sys.TestItem(i), ams.Budget{DeadlineSec: 0.5}, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := recallOf(r, store.Truth(i), ids); math.Abs(got-r.Recall) > 1e-9 {
			t.Fatalf("image %d: recallOf %v, tracker recall %v", i, got, r.Recall)
		}
	}
}
