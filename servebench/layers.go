package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ams"
	"ams/internal/batch"
	"ams/internal/core"
	"ams/internal/corpus"
	"ams/internal/obs"
	"ams/internal/oracle"
	"ams/internal/sched"
	"ams/internal/serve"
	"ams/internal/service"
	"ams/internal/shard"
	"ams/internal/sim"
	"ams/internal/synth"
	"ams/internal/tensor"
	"ams/internal/vtime"
)

// The layer replay drives a workload's own items through the exported
// functions of the layers the root API hides — policies and predictor
// caches, the Q-network, tensor kernels, the tracker, on-demand items,
// the model zoo, the timer wheel, the batcher, the shard router and the
// corpus — and times every call from outside.

// replayItems caps how many of the workload's items the replay drives.
const replayItems = 600

// layerInput is what the replay runs on: the workload's items as
// scenes, and a store of their precomputed outputs (index = position).
type layerInput struct {
	scenes []synth.Scene
	store  *oracle.Store
	agent  *core.Agent
}

// replayInput builds the replay's input from the scenes of the
// workload's first round.
func replayInput(sys *ams.System, agent *ams.Agent, scenes []synth.Scene, work string) (*layerInput, error) {
	path := filepath.Join(work, "agent.gob")
	if err := agent.Save(path); err != nil {
		return nil, err
	}
	inner, err := core.LoadAgentFile(path)
	if err != nil {
		return nil, err
	}
	if len(scenes) > replayItems {
		scenes = scenes[:replayItems]
	}
	return &layerInput{scenes: scenes, store: oracle.Build(sys.Zoo, scenes), agent: inner}, nil
}

// testScenes returns the scenes behind a stream of test-image indices.
func testScenes(sys *ams.System, images []int) []synth.Scene {
	_, test := sys.Dataset.Split(0.2) // ams.New's default train fraction
	out := make([]synth.Scene, len(images))
	for i, img := range images {
		out[i] = test[img]
	}
	return out
}

// countingPredictor counts forward passes and keeps a copy of the first
// states it is asked about, for the network replay.
type countingPredictor struct {
	pred   sched.Predictor
	calls  int
	states [][]int
}

const keepStates = 4096

func (p *countingPredictor) Predict(state []int) []float64 {
	p.calls++
	if len(p.states) < keepStates {
		p.states = append(p.states, append([]int(nil), state...))
	}
	return p.pred.Predict(state)
}

// policyFor builds the workload's policy over pred, as the server's
// registry would: Algorithm 2's memory packer or Algorithm 1's cost-aware
// Q-greedy, behind a per-schedule prediction memo (shared across items
// when the workload shares one).
func policyFor(w workload, in *layerInput, pred sched.Predictor, shared *sched.SharedCache) sim.Policy {
	cached := sched.NewSharedCachedPredictor(pred, shared)
	if w.cfg.Policy.Name() == ams.PolicyAlgorithm2.Name() {
		return sched.NewMemoryPacker(cached, in.store.Zoo)
	}
	return sched.NewCostQGreedy(cached, in.store.Zoo)
}

// shardBudgetMB is one shard's memory budget (0 = unconstrained).
func (w workload) shardBudgetMB() float64 {
	return w.cfg.MemoryGB * 1024 / float64(w.segments())
}

// layerMetrics accumulates the replay's figures.
type layerMetrics map[string]metricValue

func (m layerMetrics) set(name string, v float64, unit string, n int, source string) {
	m[name] = metricValue{Value: v, Unit: unit, Samples: n, Source: source}
}

// mallocs reads the exact cumulative allocation count; ReadMemStats
// flushes every P's cache, so deltas around a loop are exact.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func nsSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) }

// replayLayers runs every layer replay in turn, each under a span of
// its own, and records its figures in m.
func replayLayers(ctx context.Context, sys *ams.System, w workload, in *layerInput, work string, spans *spanLog, m layerMetrics) error {
	spans.push("layer-replay")
	defer spans.pop()
	sp := spans.begin("replay.sched")
	schedules, states := replaySched(w, in, m)
	spans.end(sp)
	sp = spans.begin("replay.nn")
	replayNN(in, states, m)
	spans.end(sp)
	sp = spans.begin("replay.tensor")
	replayTensor(in, states, m)
	spans.end(sp)
	sp = spans.begin("replay.oracle")
	replayOracle(in, schedules, m)
	spans.end(sp)
	sp = spans.begin("replay.vtime")
	replayWheel(w, in, schedules, m)
	spans.end(sp)
	sp = spans.begin("replay.batch")
	replayBatch(w, in, schedules, m)
	spans.end(sp)
	sp = spans.begin("replay.shard")
	err := replayRouter(w, in, m)
	spans.end(sp)
	if err != nil {
		return fmt.Errorf("shard replay: %w", err)
	}
	sp = spans.begin("replay.corpus")
	err = replayCorpus(ctx, sys, w, in, schedules, filepath.Join(work, "replay-corpus"), m)
	spans.end(sp)
	if err != nil {
		return fmt.Errorf("corpus replay: %w", err)
	}
	return nil
}

// replaySched runs each item's schedule serially under the workload's
// policy and budget, timing every Next call. It returns the schedules
// and the Q-network states visited.
func replaySched(w workload, in *layerInput, m layerMetrics) ([][]int, [][]int) {
	cp := &countingPredictor{pred: in.agent}
	var shared *sched.SharedCache
	if w.cfg.PredictorCache {
		shared = sched.NewSharedCache(0)
	}
	policy := policyFor(w, in, cp, shared)
	n := len(in.scenes)
	schedules := make([][]int, n)
	var nextNS []float64
	for i := 0; i < n; i++ {
		schedules[i] = runSchedule(w, in, policy, i, func(call func() int) int {
			t0 := time.Now()
			mod := call()
			nextNS = append(nextNS, nsSince(t0))
			return mod
		})
	}
	m.set("sched.next_ns", percentile(nextNS, 50), "ns", len(nextNS), "replay")
	m.set("sched.next_calls_per_item", float64(len(nextNS))/float64(n), "count", n, "replay")
	m.set("sched.predcache_hit_ratio", 1-float64(cp.calls)/float64(len(nextNS)), "ratio", len(nextNS), "replay")
	m.set("nn.forwards_per_item", float64(cp.calls)/float64(n), "count", n, "replay")

	// A second pass with a fresh policy counts allocations per Next call
	// exactly, outside the timed pass.
	if shared != nil {
		shared = sched.NewSharedCache(0)
	}
	policy = policyFor(w, in, in.agent, shared)
	var allocs uint64
	calls := 0
	for i := 0; i < min(n, 200); i++ {
		runSchedule(w, in, policy, i, func(call func() int) int {
			a := mallocs()
			mod := call()
			allocs += mallocs() - a
			calls++
			return mod
		})
	}
	m.set("sched.next_allocs", float64(allocs)/float64(max(calls, 1)), "count", calls, "replay")
	return schedules, cp.states
}

// runSchedule is the serial deadline loop: ask the policy (through
// next, which wraps the call to time or count it), execute, repeat
// until the policy stops or the deadline is spent.
func runSchedule(w workload, in *layerInput, policy sim.Policy, i int, next func(func() int) int) []int {
	tr := oracle.NewTracker(in.store, i)
	policy.Reset(i)
	remaining := w.cfg.DeadlineSec * 1000
	var order []int
	for remaining > 0 {
		c := sim.Constraints{RemainingMS: remaining, AvailMemMB: w.shardBudgetMB()}
		mod := next(func() int { return policy.Next(tr, c) })
		if mod < 0 {
			break
		}
		tr.Execute(mod)
		policy.Observe(mod, in.store.Output(i, mod))
		order = append(order, mod)
		remaining -= in.store.Model(mod).TimeMS
	}
	return order
}

// replayNN times Net.Forward on the states the schedules visited.
func replayNN(in *layerInput, states [][]int, m layerMetrics) {
	if len(states) == 0 {
		states = [][]int{nil}
	}
	net := in.agent.Net
	ns := make([]float64, 0, len(states))
	for _, s := range states {
		t0 := time.Now()
		net.Forward(s)
		ns = append(ns, nsSince(t0))
	}
	a := mallocs()
	for _, s := range states {
		net.Forward(s)
	}
	m.set("nn.forward_ns", percentile(ns, 50), "ns", len(ns), "replay")
	m.set("nn.forward_allocs", float64(mallocs()-a)/float64(len(states)), "count", len(states), "replay")
}

// kernelNS times fn in batches of reps calls and returns the median
// per-call time over the batches.
func kernelNS(reps int, fn func()) (float64, int) {
	const batches = 7
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per[b] = nsSince(t0) / float64(reps)
	}
	return median(per), batches * reps
}

// replayTensor times the kernels a forward pass runs, at the agent's
// layer shapes: the sparse first layer (hidden x input, summing the
// columns of a visited state), the dense head (outputs x hidden) and a
// hidden-width dot product.
func replayTensor(in *layerInput, states [][]int, m layerMetrics) {
	net := in.agent.Net
	rng := tensor.NewRNG(7)
	fill := func(v tensor.Vec) {
		for i := range v {
			v[i] = rng.Range(-1, 1)
		}
	}
	head := tensor.NewMat(net.Out(), hiddenWidth)
	fill(head.Data)
	first := tensor.NewMat(hiddenWidth, net.In())
	fill(first.Data)
	x, y := tensor.NewVec(hiddenWidth), tensor.NewVec(hiddenWidth)
	fill(x)
	fill(y)
	out := tensor.NewVec(net.Out())
	hid := tensor.NewVec(hiddenWidth)
	active := states[len(states)/2%max(len(states), 1)]

	ns, n := kernelNS(2000, func() { head.MulVecInto(out, x) })
	m.set("tensor.mulvec_ns", ns, "ns", n, "replay")
	m.set("tensor.mulvec_bytes", float64(8*(head.Rows*head.Cols+head.Cols+head.Rows)), "bytes", 1, "computed")
	ns, n = kernelNS(2000, func() { first.SumColsSparseInto(hid, active) })
	m.set("tensor.sumcols_sparse_ns", ns, "ns", n, "replay")
	var sink float64
	ns, n = kernelNS(20000, func() { sink += x.Dot(y) })
	m.set("tensor.dot_ns", ns, "ns", n, "replay")
	_ = sink
}

// replayOracle times the tracker on the recorded schedules, and
// on-demand items and zoo inference on fresh copies of the scenes.
func replayOracle(in *layerInput, schedules [][]int, m layerMetrics) {
	build := func() []*oracle.Tracker {
		trs := make([]*oracle.Tracker, len(schedules))
		for i := range trs {
			trs[i] = oracle.NewTracker(in.store, i)
		}
		return trs
	}
	trs := build()
	var ns []float64
	for i, s := range schedules {
		for _, mod := range s {
			t0 := time.Now()
			trs[i].Execute(mod)
			ns = append(ns, nsSince(t0))
		}
	}
	m.set("oracle.execute_ns", percentile(ns, 50), "ns", len(ns), "replay")
	trs = build()
	a := mallocs()
	for i, s := range schedules {
		for _, mod := range s {
			trs[i].Execute(mod)
		}
	}
	m.set("oracle.execute_allocs", float64(mallocs()-a)/float64(max(len(ns), 1)), "count", len(ns), "replay")
	a = mallocs()
	for _, tr := range trs {
		tr.Unexecuted()
	}
	m.set("oracle.unexecuted_allocs", float64(mallocs()-a)/float64(len(trs)), "count", len(trs), "replay")

	z := in.store.Zoo
	var outUS, inferUS []float64
	for i, s := range schedules {
		item := oracle.NewExternalItem(z, in.scenes[i])
		for _, mod := range s {
			t0 := time.Now()
			item.Output(mod)
			outUS = append(outUS, nsSince(t0)/1e3)
			t0 = time.Now()
			z.Models[mod].Infer(&in.scenes[i])
			inferUS = append(inferUS, nsSince(t0)/1e3)
		}
	}
	m.set("oracle.external_output_us", percentile(outUS, 50), "us", len(outUS), "replay")
	m.set("zoo.infer_us", percentile(inferUS, 50), "us", len(inferUS), "replay")
}

// fanOut runs fn(g, i) for every item i on the workload's worker count
// of goroutines, item i on goroutine i mod workers, and merges the
// samples each goroutine returns.
func fanOut(workers, items int, fn func(i int) []float64) []float64 {
	per := make([][]float64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < items; i += workers {
				per[g] = append(per[g], fn(i)...)
			}
		}(g)
	}
	wg.Wait()
	var all []float64
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// simSleep is model mod's execution time at the workload's time scale.
func (w workload) simSleep(in *layerInput, mod int) time.Duration {
	return time.Duration(in.store.Model(mod).TimeMS * w.cfg.TimeScale * float64(time.Millisecond))
}

// replayWheel measures how late Wheel.Sleep wakes at the workload's
// sleep lengths and concurrency, and what scheduling a timer costs.
func replayWheel(w workload, in *layerInput, schedules [][]int, m layerMetrics) {
	wheel := vtime.NewWheel()
	late := fanOut(w.cfg.Workers, len(schedules), func(i int) []float64 {
		var out []float64
		for _, mod := range schedules[i] {
			d := w.simSleep(in, mod)
			t0 := time.Now()
			wheel.Sleep(d)
			out = append(out, float64((time.Since(t0)-max(d, 0)).Nanoseconds())/1e3)
		}
		return out
	})
	m.set("vtime.sleep_late_us.p50", percentile(late, 50), "us", len(late), "replay")
	m.set("vtime.sleep_late_us.p99", percentile(late, 99), "us", len(late), "replay")
	var ns []float64
	var wg sync.WaitGroup
	for _, s := range schedules {
		for _, mod := range s {
			d := w.simSleep(in, mod)
			if d <= 0 {
				d = time.Microsecond // a timer that is really armed
			}
			wg.Add(1)
			t0 := time.Now()
			wheel.AfterFunc(d, wg.Done)
			ns = append(ns, nsSince(t0))
		}
	}
	wg.Wait()
	wheel.Stop()
	m.set("vtime.afterfunc_ns", percentile(ns, 50), "ns", len(ns), "replay")
}

// replayBatch times Batcher.Enqueue with the workload's batching
// configuration (one request per batch where the workload does not
// batch), on the workload's worker count of goroutines.
func replayBatch(w workload, in *layerInput, schedules [][]int, m layerMetrics) {
	wheel := vtime.NewWheel()
	defer wheel.Stop()
	cfg := batch.Config{MaxBatch: 1, TimeScale: w.cfg.TimeScale}
	if w.cfg.BatchSize > 0 {
		cfg.MaxBatch, cfg.MaxHoldMS = w.cfg.BatchSize, w.cfg.BatchHoldMS
	}
	b := batch.New(in.store.Zoo.Models, nil, wheel, cfg)
	ns := fanOut(w.cfg.Workers, len(schedules), func(i int) []float64 {
		var out []float64
		for _, mod := range schedules[i] {
			done := make(chan struct{})
			t0 := time.Now()
			b.Enqueue(mod, false, done, nil)
			out = append(out, nsSince(t0))
			<-done
		}
		return out
	})
	m.set("batch.enqueue_ns", percentile(ns, 50), "ns", len(ns), "replay")
}

// replayRouter times Router.Submit over the workload's shard count,
// keeping the workload's window of items outstanding.
func replayRouter(w workload, in *layerInput, m layerMetrics) error {
	n := w.segments()
	placement, err := shard.PlacementByName(w.cfg.ShardPlacement)
	if err != nil {
		return err
	}
	factory := func(int) sim.Policy {
		clone := &core.Agent{Net: in.agent.Net.Clone(), NumModels: in.agent.NumModels, Algo: in.agent.Algo}
		return policyFor(w, in, clone, nil)
	}
	epoch := time.Now()
	servers := make([]*serve.Server, n)
	workers := make([]int, n)
	for s := range servers {
		workers[s] = w.cfg.Workers / n
		if s < w.cfg.Workers%n {
			workers[s]++
		}
		servers[s], err = serve.New(in.store, service.PolicyFactory(factory), serve.Config{
			Config:         service.Config{Workers: workers[s], DeadlineSec: w.cfg.DeadlineSec},
			MemoryBudgetMB: w.shardBudgetMB(),
			TimeScale:      w.cfg.TimeScale,
			ItemParallel:   w.cfg.Policy.Name() == ams.PolicyAlgorithm2.Name(),
			Epoch:          epoch,
		})
		if err != nil {
			for _, sv := range servers[:s] {
				_ = sv.Close()
			}
			return err
		}
	}
	r, err := shard.New(servers, shard.Config{
		Placement: placement, Steal: w.cfg.ShardSteal, Models: len(in.store.Zoo.Models), Workers: workers,
	})
	if err != nil {
		for _, sv := range servers {
			_ = sv.Close()
		}
		return err
	}
	var ns []float64
	var outstanding []*shard.Ticket
	for i := range in.scenes {
		it := shard.Item{Key: uint64(i), Tag: strconv.Itoa(i), Index: i}
		if placement == shard.Affinity {
			it.Hint = in.store.Zoo.SupportingModels(in.store.Truth(i).LabelValue, 4)
		}
		for {
			if len(outstanding) >= w.window {
				<-outstanding[0].Done()
				outstanding = outstanding[1:]
			}
			t0 := time.Now()
			tk, err := r.Submit(it)
			if errors.Is(err, serve.ErrQueueFull) {
				if len(outstanding) == 0 {
					time.Sleep(time.Millisecond)
				}
				continue
			}
			if err != nil {
				_ = r.Close()
				return err
			}
			ns = append(ns, nsSince(t0))
			outstanding = append(outstanding, tk)
			break
		}
	}
	err = r.Close()
	for _, tk := range outstanding {
		if _, terr := tk.Result(); terr != nil && err == nil {
			err = terr
		}
	}
	m.set("shard.submit_ns", percentile(ns, 50), "ns", len(ns), "replay")
	return err
}

// replayCorpus journals the items into a fresh single-segment corpus
// with ingest-durable's options, as the server would — admit, the
// scheduled models' outputs, commit — timing each admit and commit
// append; then snapshots, reopens and replays it.
func replayCorpus(ctx context.Context, sys *ams.System, w workload, in *layerInput, schedules [][]int, dir string, m layerMetrics) error {
	opts := durableCorpus
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	segs, err := corpus.OpenDir(sys.Zoo, dir, 1, corpus.Options{
		MaxResident: opts.MaxResident, SnapshotEvery: opts.SnapshotEvery,
		SyncEveryN: opts.SyncEveryN, SyncEveryMS: opts.SyncEveryMS,
	})
	if err != nil {
		return err
	}
	seg := segs[0]
	reg := obs.NewRegistry()
	seg.SetMetrics(corpus.NewMetrics(reg))
	src := seg.Source(nil)
	var us []float64
	resident := 0
	for i, s := range schedules {
		t0 := time.Now()
		idx, err := src.AdmitWait(ctx, in.scenes[i], strconv.Itoa(i))
		us = append(us, nsSince(t0)/1e3)
		if err != nil {
			return errors.Join(err, seg.Close())
		}
		resident = max(resident, seg.Stats().Resident)
		src.BeginItem(idx)
		var ms float64
		for _, mod := range s {
			src.Output(idx, mod)
			ms += in.store.Model(mod).TimeMS
		}
		t0 = time.Now()
		src.CommitItem(idx, s, ms)
		us = append(us, nsSince(t0)/1e3)
	}
	m.set("corpus.append_us.p50", percentile(us, 50), "us", len(us), "replay")
	m.set("corpus.append_us.p99", percentile(us, 99), "us", len(us), "replay")
	if w.corpus != nil {
		// ingest-durable measures the rest on its served corpus.
		return errors.Join(seg.Close(), os.RemoveAll(dir))
	}
	n := len(schedules)
	st := seg.Stats()
	m.set("corpus.records_per_item", float64(st.JournalRecords)/float64(n), "count", n, "replay")
	m.set("corpus.syncs_per_1k_items", float64(st.Syncs)*1000/float64(n), "count", n, "replay")
	m.set("corpus.resident_peak", float64(resident), "count", n, "replay")
	t0 := time.Now()
	err = seg.Snapshot()
	m.set("corpus.snapshot_ms", nsSince(t0)/1e6, "ms", 1, "replay")
	if err = errors.Join(err, seg.Close()); err != nil {
		return err
	}
	fsync := histogram(reg.Snapshot(), "ams_corpus_fsync_seconds")
	m.set("corpus.fsync_ms.mean", fsync.mean()*1e3, "ms", int(fsync.count), "replay")
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m.set("corpus.journal_bytes_per_item", float64(bytes)/float64(n), "bytes", n, "replay")
	rec, err := recoverCorpus(ctx, sys, nil, ams.ServeConfig{}, dir, opts, nil)
	if err != nil {
		return err
	}
	if got := len(rec.report.Recovered); got != n || rec.inferences != 0 || len(rec.report.Relabeled) != 0 {
		return fmt.Errorf("replay of %d journaled items recovered %d with %d inferences", n, got, rec.inferences)
	}
	m.set("corpus.reopen_s", rec.reopenSec, "s", 1, "replay")
	m.set("ams.recovery_s", rec.reopenSec+rec.replaySec, "s", 1, "replay")
	return os.RemoveAll(dir)
}

// histTotal sums one histogram family's count and sum across labels.
type histTotal struct {
	count int64
	sum   float64
}

func (h histTotal) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

func histogram(ms []obs.Metric, name string) histTotal {
	var h histTotal
	for _, mt := range ms {
		if mt.Name == name {
			h.count += mt.Count
			h.sum += mt.Sum
		}
	}
	return h
}

// dirBytes is the size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
