package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"ams"
	"ams/internal/corpus"
	"ams/internal/oracle"
	"ams/internal/synth"
	"ams/internal/zoo"
)

// The System every workload serves: one dataset and agent shape, built
// from a fixed seed so that set-up is the same deployment on every run.
// The workload seed only draws the item stream.
const (
	systemSeed  = 1
	systemSize  = 300 // MSCOCO images, 1:4 train/test split
	trainEpochs = 2
	hiddenWidth = 256 // the paper's Q-network

	// setupRepeats is how many times one run builds the System, trains
	// the agent and starts a server; setup_s is their median.
	setupRepeats = 3
	// resultTimeout bounds the wait for any single completion, so a lost
	// item fails the run instead of hanging it.
	resultTimeout = 30 * time.Second
)

// workload is one named serving configuration. Every workload is a
// closed loop: one generator goroutine keeps window items outstanding,
// submitting with SubmitWait and collecting from Server.Results. A run
// serves rounds of roundItems items, each on a fresh server (and a
// fresh corpus), until the run's seconds are spent; a fixed round size
// keeps per-round work, including corpus size, the same on every build.
type workload struct {
	name       string
	why        string
	cfg        ams.ServeConfig
	window     int
	roundItems int
	// external serves freshly generated scenes (GenerateItems) instead
	// of the held-out test split; they have no ground truth.
	external bool
	// corpus, when non-nil, journals every round into a fresh
	// segmented corpus directory and ends the round with a recovery
	// phase: close, reopen, ReplayCorpus.
	corpus *ams.CorpusOptions
}

// durableCorpus is ingest-durable's corpus: group commit every 64
// records or 5 ms, a snapshot every 1000 commits, and at most 256
// resident items per segment.
var durableCorpus = ams.CorpusOptions{SyncEveryN: 64, SyncEveryMS: 5, SnapshotEvery: 1000, MaxResident: 256}

var workloadNames = []string{"deadline-cpu", "memory-packed", "ingest-durable"}

func workloadByName(name string) (workload, error) {
	switch name {
	case "deadline-cpu":
		return workload{
			name: name,
			why:  "Algorithm 1 with every model sleep rounded to zero: time is the select path (sched, nn, tensor, oracle) and the serial loop; vtime, batch, shard, corpus and obs idle",
			cfg: ams.ServeConfig{
				Workers:     2,
				Policy:      ams.PolicyAlgorithm1,
				DeadlineSec: 0.5,
				TimeScale:   1e-9,
			},
			window:     2,
			roundItems: 4000,
		}, nil
	case "memory-packed":
		return workload{
			name: name,
			why:  "Algorithm 2 under a shared 2 GB budget on 2 shards with batching and a shared predictor cache: time is waits on the vtime wheel, memory accountant, batch lanes and steals",
			cfg: ams.ServeConfig{
				Workers:        8,
				Policy:         ams.PolicyAlgorithm2,
				DeadlineSec:    0.8,
				MemoryGB:       2,
				Shards:         2,
				ShardPlacement: "affinity",
				ShardSteal:     true,
				BatchSize:      8,
				BatchHoldMS:    600,
				PredictorCache: true,
				TimeScale:      1e-5,
			},
			window:     16,
			roundItems: 1000,
		}, nil
	case "ingest-durable":
		return workload{
			name: name,
			why:  "never-seen scenes run on-demand zoo inference and journal into a 2-segment corpus with group commit and snapshots, telemetry on; then the corpus is reopened and replayed",
			cfg: ams.ServeConfig{
				Workers:     2,
				Policy:      ams.PolicyAlgorithm1,
				DeadlineSec: 0.5,
				Shards:      2,
				Telemetry:   true,
				TimeScale:   1e-9,
			},
			window:     2,
			roundItems: 2000,
			external:   true,
			corpus:     &durableCorpus,
		}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// segments is the corpus's journal segment count: one per shard.
func (w workload) segments() int { return max(w.cfg.Shards, 1) }

// setupTimes is one set-up, split by the root calls it made.
type setupTimes struct {
	newSec, trainSec, openSec, serverSec float64
}

func (s setupTimes) total() float64 { return s.newSec + s.trainSec + s.openSec + s.serverSec }

// setup builds the System, trains the agent, and — as a deployment
// would before taking traffic — opens the corpus and starts a server,
// which it then closes again. Only the four root calls are timed.
func setup(w workload, dir string, spans *spanLog) (*ams.System, *ams.Agent, setupTimes, error) {
	var st setupTimes
	sp := spans.begin("ams.New")
	t0 := time.Now()
	sys, err := ams.New(ams.Config{Dataset: ams.DatasetMSCOCO, NumImages: systemSize, Seed: systemSeed})
	st.newSec = time.Since(t0).Seconds()
	spans.end(sp)
	if err != nil {
		return nil, nil, st, err
	}
	sp = spans.begin("ams.TrainAgent")
	t0 = time.Now()
	agent, err := sys.TrainAgent(ams.TrainOptions{
		Algorithm: ams.DuelingDQN, Epochs: trainEpochs, Hidden: []int{hiddenWidth}, Seed: systemSeed,
	})
	st.trainSec = time.Since(t0).Seconds()
	spans.end(sp)
	if err != nil {
		return nil, nil, st, err
	}
	cfg := w.cfg
	var c *ams.Corpus
	if w.corpus != nil {
		sp = spans.begin("ams.OpenCorpusDir")
		t0 = time.Now()
		c, err = sys.OpenCorpusDir(filepath.Join(dir, "setup-corpus"), w.segments(), *w.corpus)
		st.openSec = time.Since(t0).Seconds()
		spans.end(sp)
		if err != nil {
			return nil, nil, st, err
		}
		cfg.Corpus = c
	}
	sp = spans.begin("ams.NewServer")
	t0 = time.Now()
	srv, err := sys.NewServer(agent, cfg)
	st.serverSec = time.Since(t0).Seconds()
	spans.end(sp)
	if err == nil {
		err = srv.Close()
	}
	if c != nil {
		err = errors.Join(err, c.Close(), os.RemoveAll(filepath.Join(dir, "setup-corpus")))
	}
	return sys, agent, st, err
}

// items draws round r's item stream from the workload seed. Test items
// are sampled with replacement from the held-out split; external items
// are fresh scenes. Every item is tagged with its position in the round.
func (w workload) items(sys *ams.System, seed uint64, r int) []ams.Item {
	out := make([]ams.Item, w.roundItems)
	if w.external {
		for i, it := range sys.GenerateItems(w.roundItems, seed*1_000_003+uint64(r)) {
			out[i] = it.WithID(strconv.Itoa(i))
		}
		return out
	}
	for i, img := range w.images(sys, seed, r) {
		out[i] = sys.TestItem(img).WithID(strconv.Itoa(i))
	}
	return out
}

// images is round r's stream of test-image indices.
func (w workload) images(sys *ams.System, seed uint64, r int) []int {
	rng := rand.New(rand.NewPCG(seed, uint64(r)))
	out := make([]int, w.roundItems)
	for i := range out {
		out[i] = rng.IntN(sys.NumTestImages())
	}
	return out
}

// roundRun is everything one round measured.
type roundRun struct {
	sent      int
	results   []*ams.Result // by position; nil when never delivered
	dups      int           // deliveries beyond the first for one item
	latencyMS []float64     // submit -> delivery, in delivery order
	submitUS  []float64     // time spent inside SubmitWait
	proc      procDelta     // the serve phase: first submit to last delivery
	heapPeak  uint64
	// inferences counts the zoo model executions of the serve phase.
	inferences int64
	// residentPeak is the most corpus-resident items seen during a
	// traced round; diskBytes the corpus's size on disk after it.
	residentPeak int
	diskBytes    int64
	stats        ams.ServeStats
	corpus       ams.CorpusStats
	recovery     *recoveryRun
	// scenes and truths hold, for external items, each journaled scene
	// and the ground truth the benchmark derived from it after the
	// round, by item tag.
	scenes map[string]synth.Scene
	truths map[string]*oracle.Truth

	// The round's summary, kept once the bulky per-item data above is
	// released (summarize): a run holds only what its metrics need, so
	// the benchmark's own memory does not grow round over round.
	delivered, valuable, recallN int
	recallSum                    float64
}

// summarize reduces the checked round to its counts and releases the
// per-item results; keepScenes keeps the journaled scenes (the layer
// replay drives the first round's items).
func (r *roundRun) summarize(ids map[[2]string]int, keepScenes bool) {
	for _, res := range r.results {
		if res == nil {
			continue
		}
		r.delivered++
		r.valuable += len(res.ValuableLabels())
		switch truth := r.truths[res.ItemID]; {
		case res.HasRecall:
			r.recallSum += res.Recall
			r.recallN++
		case truth != nil:
			r.recallSum += recallOf(res, truth, ids)
			r.recallN++
		}
	}
	r.results, r.truths = nil, nil
	if !keepScenes {
		r.scenes = nil
	}
	if r.recovery != nil {
		r.recovery.recovered = len(r.recovery.report.Recovered)
		r.recovery.report = nil
	}
}

// recoveryRun is the corpus recovery phase of a round.
type recoveryRun struct {
	reopenSec, replaySec float64
	inferences           int64
	report               *ams.ReplayReport
	recovered            int // len(report.Recovered), kept after summarize
}

// serveRound runs one round on a fresh server built from cfg (the
// traced run passes the workload's config with telemetry switched on or
// off) and, for corpus workloads, its recovery phase.
func serveRound(ctx context.Context, w workload, sys *ams.System, agent *ams.Agent, cfg ams.ServeConfig,
	items []ams.Item, dir string, spans *spanLog, beforeClose closeHook) (*roundRun, error) {
	var c *ams.Corpus
	cdir := filepath.Join(dir, "corpus")
	if w.corpus != nil {
		if err := os.RemoveAll(cdir); err != nil {
			return nil, err
		}
		var err error
		if c, err = sys.OpenCorpusDir(cdir, w.segments(), *w.corpus); err != nil {
			return nil, err
		}
		cfg.Corpus = c
	}
	srv, err := sys.NewServer(agent, cfg)
	if err != nil {
		if c != nil {
			_ = c.Close()
		}
		return nil, err
	}
	run, err := drive(ctx, srv, c, items, w.window, spans)
	if err == nil && beforeClose != nil {
		err = beforeClose(srv)
	}
	sp := spans.begin("ams.Server.Close")
	err = errors.Join(err, srv.Close())
	spans.end(sp)
	// Anything delivered after the last expected item is a second
	// delivery of some item.
	for range srv.Results() {
		run.dups++
	}
	run.stats = srv.Stats()
	if c == nil {
		return run, err
	}
	run.corpus = c.Stats()
	err = errors.Join(err, c.Close())
	if err != nil {
		return run, err
	}
	if run.diskBytes, err = dirBytes(cdir); err != nil {
		return run, err
	}
	run.recovery, err = recoverCorpus(ctx, sys, agent, cfg, cdir, *w.corpus, spans)
	if err == nil {
		run.scenes, err = journalScenes(sys, cdir)
	}
	run.truths = make(map[string]*oracle.Truth, len(run.scenes))
	for tag, scene := range run.scenes {
		run.truths[tag] = oracle.DeriveTruth(sys.Zoo, &scene)
	}
	return run, errors.Join(err, os.RemoveAll(cdir))
}

// closeHook lets the traced run read server state before Close.
type closeHook func(*ams.Server) error

// recoverCorpus reopens the round's corpus and replays it, timing both and
// counting the model inferences the replay ran (zero when every result
// comes back from the journal).
func recoverCorpus(ctx context.Context, sys *ams.System, agent *ams.Agent, cfg ams.ServeConfig,
	dir string, opts ams.CorpusOptions, spans *spanLog) (*recoveryRun, error) {
	rec := &recoveryRun{}
	sp := spans.begin("ams.OpenCorpusDir(reopen)")
	t0 := time.Now()
	c, err := sys.OpenCorpusDir(dir, 0, opts)
	rec.reopenSec = time.Since(t0).Seconds()
	spans.end(sp)
	if err != nil {
		return nil, err
	}
	cfg.Corpus = nil
	cfg.Telemetry = false
	inf0 := zoo.Inferences()
	sp = spans.begin("ams.ReplayCorpus")
	t0 = time.Now()
	rec.report, err = sys.ReplayCorpus(ctx, agent, cfg, c)
	rec.replaySec = time.Since(t0).Seconds()
	spans.end(sp)
	rec.inferences = zoo.Inferences() - inf0
	return rec, errors.Join(err, c.Close())
}

// journalScenes reads back every scene journaled under dir, by item
// tag. External items carry no ground truth of their own; the benchmark
// derives it from these scenes after the round, outside every timed
// phase and after the replay's inference count.
func journalScenes(sys *ams.System, dir string) (map[string]synth.Scene, error) {
	segs, err := corpus.OpenDir(sys.Zoo, dir, 0, corpus.Options{})
	if err != nil {
		return nil, err
	}
	scenes := make(map[string]synth.Scene)
	for _, seg := range segs {
		for _, st := range seg.States() {
			scenes[st.Tag] = *seg.Item(st.Seq).Scene()
		}
		err = errors.Join(err, seg.Close())
	}
	return scenes, err
}

// labelIDs maps (task, label name) to the vocabulary's label ID.
func labelIDs(sys *ams.System) map[[2]string]int {
	ids := make(map[[2]string]int, sys.Vocabulary.Len())
	for id := 0; id < sys.Vocabulary.Len(); id++ {
		l := sys.Vocabulary.Label(id)
		ids[[2]string{l.Task.String(), l.Name}] = id
	}
	return ids
}

// recallOf is the recall of a result against a ground truth, computed
// from the delivered labels alone: the truth value of the valuable
// labels emitted over the item's total valuable value, the same rate
// Result.Recall reports for test items.
func recallOf(r *ams.Result, truth *oracle.Truth, ids map[[2]string]int) float64 {
	if truth.TotalValue <= 0 {
		return 1
	}
	var v float64
	for _, l := range r.Labels {
		if l.Valuable {
			v += truth.LabelValue[ids[[2]string{l.Task, l.Name}]]
		}
	}
	return v / truth.TotalValue
}

// drive is the closed-loop generator: it keeps window items
// outstanding and collects completions from the Results stream, timing
// each item from the start of its SubmitWait call to its delivery.
func drive(ctx context.Context, srv *ams.Server, c *ams.Corpus, items []ams.Item, window int, spans *spanLog) (*roundRun, error) {
	n := len(items)
	run := &roundRun{
		results:   make([]*ams.Result, n),
		latencyMS: make([]float64, 0, n),
	}
	if spans != nil {
		run.submitUS = make([]float64, 0, n)
	}
	res := srv.Results() // subscribe before the first submission
	submitted := make([]time.Time, n)
	timer := time.NewTimer(resultTimeout)
	defer timer.Stop()
	settle()
	heap := watchHeap()
	p0 := sampleProc()
	inf0 := zoo.Inferences()
	got := 0
	for got < n {
		for run.sent < n && run.sent-got < window {
			i := run.sent
			sp := spans.begin("ams.Server.SubmitWait")
			t0 := time.Now()
			if _, err := srv.SubmitWait(ctx, items[i]); err != nil {
				heap.Stop()
				return run, fmt.Errorf("submit item %d: %w", i, err)
			}
			submitted[i] = t0
			if run.submitUS != nil {
				run.submitUS = append(run.submitUS, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			spans.end(sp)
			run.sent++
		}
		sp := spans.begin("ams.Server.Results(wait)")
		timer.Reset(resultTimeout)
		var r *ams.Result
		select {
		case r = <-res:
		case <-timer.C:
		}
		spans.end(sp)
		if r == nil {
			heap.Stop()
			return run, fmt.Errorf("no completion within %v (%d of %d delivered)", resultTimeout, got, n)
		}
		now := time.Now()
		i, err := strconv.Atoi(r.ItemID)
		if err != nil || i < 0 || i >= n || run.results[i] != nil || i >= run.sent {
			run.dups++
			continue
		}
		run.results[i] = r
		run.latencyMS = append(run.latencyMS, float64(now.Sub(submitted[i]).Nanoseconds())/1e6)
		got++
		if c != nil && spans != nil && got%16 == 0 {
			run.residentPeak = max(run.residentPeak, c.Stats().Resident)
		}
	}
	run.proc = p0.to(sampleProc())
	run.inferences = zoo.Inferences() - inf0
	run.heapPeak = heap.Stop()
	return run, nil
}

// checker validates one workload's outputs. Each failed item counts
// once; run-level failures (a budget exceeded, an item committed twice)
// count once each.
type checker struct {
	w        workload
	expected map[int]*ams.Result // deadline-cpu: LabelWith result per test image
	failures []string            // first few, for the report
	failed   int
	// phase names the phase failures are charged to; failedBy counts
	// them per phase.
	phase    string
	failedBy map[string]int
}

const keepFailures = 8

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if c.failedBy == nil {
		c.failedBy = make(map[string]int)
	}
	c.failedBy[c.phase]++
	if len(c.failures) < keepFailures {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// expectAlgorithm1 records the reference result of every test image
// for deadline-cpu: deadline-only schedules are deterministic, so the
// server must reproduce LabelWith exactly.
func (c *checker) expectAlgorithm1(ctx context.Context, sys *ams.System, agent *ams.Agent) error {
	c.expected = make(map[int]*ams.Result, sys.NumTestImages())
	for i := 0; i < sys.NumTestImages(); i++ {
		r, err := sys.LabelWith(ctx, ams.PolicyAlgorithm1, agent, sys.TestItem(i),
			ams.Budget{DeadlineSec: c.w.cfg.DeadlineSec})
		if err != nil {
			return err
		}
		c.expected[i] = r
	}
	return nil
}

// checkRound applies the workload's output checks to one round.
func (c *checker) checkRound(items []ams.Item, run *roundRun) {
	c.phase = "serve"
	n := len(items)
	if run.sent != n {
		c.fail("sent %d of %d items", run.sent, n)
	}
	if run.dups > 0 {
		c.fail("%d items delivered more than once", run.dups)
	}
	if run.stats.Completed != int64(n) {
		c.fail("server completed %d items, want %d", run.stats.Completed, n)
	}
	for i, r := range run.results {
		if r == nil {
			c.fail("item %d never delivered", i)
			continue
		}
		if msg := c.checkResult(r); msg != "" {
			c.fail("item %d: %s", i, msg)
		}
	}
	if c.w.cfg.MemoryGB > 0 {
		budget := c.w.cfg.MemoryGB * 1024
		if run.stats.PeakMemMB > budget+1e-6 {
			c.fail("peak memory %.1f MB over the %.0f MB budget", run.stats.PeakMemMB, budget)
		}
		for _, ps := range run.stats.PerShard {
			if share := budget / float64(len(run.stats.PerShard)); ps.PeakMemMB > share+1e-6 {
				c.fail("shard %d peak memory %.1f MB over its %.0f MB share", ps.Shard, ps.PeakMemMB, share)
			}
		}
	}
	if c.w.corpus != nil {
		if limit := c.w.corpus.MaxResident * c.w.segments(); run.residentPeak > limit {
			c.fail("corpus held %d resident items, over its %d limit", run.residentPeak, limit)
		}
		if run.corpus.Committed != n {
			c.fail("corpus committed %d of %d items", run.corpus.Committed, n)
		}
		c.phase = "recovery"
		c.checkRecovery(run)
		c.phase = "serve"
	}
}

// checkResult is the per-item check.
func (c *checker) checkResult(r *ams.Result) string {
	if c.w.external != !r.HasRecall {
		return fmt.Sprintf("HasRecall %v for an item with external=%v", r.HasRecall, c.w.external)
	}
	seen := make(map[string]bool, len(r.ModelsRun))
	for _, m := range r.ModelsRun {
		if seen[m] {
			return "model " + m + " ran twice"
		}
		seen[m] = true
	}
	if dl := c.w.cfg.DeadlineSec; r.TimeSec > dl+1e-9 {
		return fmt.Sprintf("schedule took %.4f s, over the %.2f s deadline", r.TimeSec, dl)
	}
	if c.expected != nil {
		want := c.expected[r.Image]
		if want == nil {
			return fmt.Sprintf("no reference for image %d", r.Image)
		}
		if !sameLabeling(r, want) {
			return fmt.Sprintf("differs from LabelWith(algorithm1): models %v labels %d, want models %v labels %d",
				r.ModelsRun, len(r.Labels), want.ModelsRun, len(want.Labels))
		}
	}
	return ""
}

// checkRecovery verifies the replay of a fully committed corpus: every
// item comes back recovered from the journal, none is relabeled, no
// model runs, and each recovered labeling equals the delivered one.
func (c *checker) checkRecovery(run *roundRun) {
	rec := run.recovery
	if rec == nil || rec.report == nil {
		c.fail("no recovery phase")
		return
	}
	if got := len(rec.report.Recovered); got != len(run.results) {
		c.fail("replay recovered %d items, want %d", got, len(run.results))
	}
	if got := len(rec.report.Relabeled); got != 0 {
		c.fail("replay relabeled %d items, want 0", got)
	}
	if rec.inferences != 0 {
		c.fail("replay ran %d model inferences, want 0", rec.inferences)
	}
	for _, r := range rec.report.Recovered {
		i, err := strconv.Atoi(r.ItemID)
		if err != nil || i < 0 || i >= len(run.results) || run.results[i] == nil {
			c.fail("replay recovered unknown item %q", r.ItemID)
			continue
		}
		if !sameLabeling(r, run.results[i]) {
			c.fail("item %d: recovered labels differ from the delivered ones", i)
		}
	}
}

// sameLabeling compares the models run and the emitted labels (name,
// task, confidence) of two results.
func sameLabeling(a, b *ams.Result) bool {
	return slices.Equal(a.ModelsRun, b.ModelsRun) && slices.Equal(a.Labels, b.Labels)
}
