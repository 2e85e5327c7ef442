package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"ams"
	"ams/internal/synth"
)

// measure runs one workload for the given seconds and builds its
// report: the untraced run measures the end-to-end metrics, the traced
// run the per-layer ones.
func measure(ctx context.Context, w workload, seed uint64, seconds float64, traced bool, work, root string) (*report, error) {
	rep := newReport(w, seed, seconds, traced, root)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	if traced {
		return rep, measureTraced(ctx, rep, w, seed, seconds, work)
	}
	var (
		sys    *ams.System
		agent  *ams.Agent
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		sys, agent = nil, nil // let the previous deployment be collected
		settle()
		s, a, st, err := setup(w, work, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		sys, agent = s, a
		setups = append(setups, st.total())
	}
	rep.Phases = append(rep.Phases, phase{Name: "setup", Sent: setupRepeats, Succeeded: setupRepeats})
	chk := &checker{w: w}
	if err := chk.prepare(ctx, sys, agent); err != nil {
		return nil, err
	}
	rounds, err := serveRounds(ctx, w, sys, agent, w.cfg, seed, seconds, work, chk, nil, nil)
	if err != nil {
		return nil, err
	}
	rep.Metrics, rep.RoundSeries = endToEnd(rounds)
	rep.LatencySamples = latencySamples(rounds)
	rep.Metrics["setup_s"] = metricValue{Value: median(setups), Unit: "s", Samples: len(setups)}
	rep.finish(w, rounds, chk)
	for _, name := range ungated {
		rep.Extra[name] = rep.Metrics[name]
		delete(rep.Metrics, name)
	}
	return rep, nil
}

// ungated are end-to-end figures every run prints and records but that
// BENCHMARK.json does not bound: on a shared two-CPU host their
// run-to-run spread reached a third of their median or more (p99 of
// sub-millisecond latencies, and selection wall time with eight workers
// on two CPUs, both swing with CPU time lost to other tenants), wider
// than the largest bound the benchmark may set. latency_p90_ms and
// cpu_ms_per_item carry the tail and the selection cost into the gate;
// the traced run's serve.select_us.mean and sched.next_ns attribute it.
var ungated = []string{"latency_p99_ms", "select_us_per_item"}

// prepare computes whatever reference results the workload's checks
// compare against.
func (c *checker) prepare(ctx context.Context, sys *ams.System, agent *ams.Agent) error {
	if c.w.external || c.w.cfg.MemoryGB > 0 {
		return nil
	}
	return c.expectAlgorithm1(ctx, sys, agent)
}

// serveRounds serves rounds until the seconds are spent (at least one),
// checking each as it completes.
func serveRounds(ctx context.Context, w workload, sys *ams.System, agent *ams.Agent, cfg ams.ServeConfig,
	seed uint64, seconds float64, work string, chk *checker, spans *spanLog, beforeClose closeHook) ([]*roundRun, error) {
	var rounds []*roundRun
	ids := labelIDs(sys)
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < seconds; r++ {
		items := w.items(sys, seed, r)
		spans.push("round")
		run, err := serveRound(ctx, w, sys, agent, cfg, items, work, spans, beforeClose)
		spans.pop()
		if err != nil {
			return rounds, fmt.Errorf("round %d: %w", r, err)
		}
		chk.checkRound(items, run)
		run.summarize(ids, r == 0)
		rounds = append(rounds, run)
	}
	return rounds, nil
}

// endToEnd reduces the rounds to the end-to-end metrics: every timing
// and per-item cost is the median over rounds of that round's figure
// (each round's latency percentiles over its own items), so one round
// disturbed by the host counts once, not in proportion to its items.
// It also returns the per-round series behind each median.
func endToEnd(rounds []*roundRun) (map[string]metricValue, map[string][]float64) {
	series := make(map[string][]float64)
	var (
		recall                   float64
		recallN, valuable, items int
	)
	for _, r := range rounds {
		n := float64(r.delivered)
		series["items_per_s"] = append(series["items_per_s"], n/r.proc.wall.Seconds())
		series["latency_p50_ms"] = append(series["latency_p50_ms"], percentile(r.latencyMS, 50))
		series["latency_p90_ms"] = append(series["latency_p90_ms"], percentile(r.latencyMS, 90))
		series["latency_p99_ms"] = append(series["latency_p99_ms"], percentile(r.latencyMS, 99))
		series["cpu_ms_per_item"] = append(series["cpu_ms_per_item"], float64(r.proc.cpu.Nanoseconds())/1e6/n)
		series["allocs_per_item"] = append(series["allocs_per_item"], float64(r.proc.allocs)/n)
		series["alloc_kb_per_item"] = append(series["alloc_kb_per_item"], float64(r.proc.bytes)/1024/n)
		series["heap_peak_mb"] = append(series["heap_peak_mb"], float64(r.heapPeak)/(1<<20))
		series["select_us_per_item"] = append(series["select_us_per_item"], r.stats.AvgSelectSec*1e6)
		items += r.delivered
		valuable += r.valuable
		recall += r.recallSum
		recallN += r.recallN
	}
	units := map[string]string{
		"items_per_s": "items/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "latency_p99_ms": "ms", "cpu_ms_per_item": "ms",
		"allocs_per_item": "count", "alloc_kb_per_item": "KiB", "heap_peak_mb": "MiB", "select_us_per_item": "us",
	}
	m := make(map[string]metricValue, len(units)+2)
	for name, unit := range units {
		m[name] = metricValue{Value: median(series[name]), Unit: unit, Samples: len(rounds)}
	}
	m["valuable_labels_per_item"] = metricValue{Value: float64(valuable) / float64(max(items, 1)), Unit: "count", Samples: items}
	m["recall"] = metricValue{Value: recall / float64(max(recallN, 1)), Unit: "ratio", Samples: recallN}
	return m, series
}

// latencySamples is the number of items behind each round's latency
// percentiles.
func latencySamples(rounds []*roundRun) []int {
	out := make([]int, len(rounds))
	for i, r := range rounds {
		out[i] = len(r.latencyMS)
	}
	return out
}

// finish fills the report's counts, phases and extra figures.
func (rep *report) finish(w workload, rounds []*roundRun, chk *checker) {
	rep.Rounds = len(rounds)
	var sent, recN, recOK int
	var recovery []float64
	for _, r := range rounds {
		sent += r.sent
		if r.recovery != nil {
			recN += r.delivered
			recOK += r.recovery.recovered
			recovery = append(recovery, r.recovery.reopenSec+r.recovery.replaySec)
		}
	}
	rep.Attempted = sent
	rep.Failed = chk.failed
	rep.Correct = chk.failed == 0
	rep.Failures = chk.failures
	rep.Phases = append(rep.Phases, phase{Name: "serve", Sent: sent, Succeeded: sent - chk.failedBy["serve"], Failed: chk.failedBy["serve"]})
	if w.corpus != nil {
		rep.Phases = append(rep.Phases, phase{Name: "recovery", Sent: recN, Succeeded: recOK - chk.failedBy["recovery"], Failed: chk.failedBy["recovery"]})
		rep.Extra["recovery_s"] = metricValue{Value: median(recovery), Unit: "s", Samples: len(recovery)}
	}
	rep.Extra["failed_ratio"] = metricValue{Value: float64(chk.failed) / float64(max(sent, 1)), Unit: "ratio", Samples: sent}
}

// measureTraced is the traced run: one set-up, untraced rounds (telemetry
// off, no spans) for half the seconds, traced rounds (telemetry on, every
// item's span tree kept, the benchmark's own spans around each root
// call) for the other half, then the layer replay. The per-layer metrics
// come from the traced rounds, the replay and the set-up; their
// difference from the untraced rounds is the tracing overhead.
func measureTraced(ctx context.Context, rep *report, w workload, seed uint64, seconds float64, work string) error {
	spans := newSpanLog()
	rep.spans = spans
	m := layerMetrics(rep.Metrics)
	spans.push("setup")
	sys, agent, st, err := setup(w, work, spans)
	spans.pop()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	m.set("ams.new_s", st.newSec, "s", 1, "setup")
	m.set("ams.train_s", st.trainSec, "s", 1, "setup")
	rep.Phases = append(rep.Phases, phase{Name: "setup", Sent: 1, Succeeded: 1})
	chk := &checker{w: w}
	if err := chk.prepare(ctx, sys, agent); err != nil {
		return err
	}

	plain := w.cfg
	plain.Telemetry = false
	untraced, err := serveRounds(ctx, w, sys, agent, plain, seed, seconds/2, work, chk, nil, nil)
	if err != nil {
		return err
	}

	traced := w.cfg
	traced.Telemetry = true
	traced.TraceCapacity = w.roundItems
	acc := newTraceAcc()
	var snapshotMS []float64
	inspect := func(srv *ams.Server) error {
		acc.add(srv.Traces(w.roundItems))
		if w.corpus == nil {
			return nil
		}
		sp := spans.begin("ams.Server.Checkpoint")
		t0 := time.Now()
		err := srv.Checkpoint()
		snapshotMS = append(snapshotMS, nsSince(t0)/1e6)
		spans.end(sp)
		return err
	}
	rounds, err := serveRounds(ctx, w, sys, agent, traced, seed, seconds/2, work, chk, spans, inspect)
	if err != nil {
		return err
	}
	servedLayers(w, rounds, acc, m)
	if w.corpus != nil {
		m.set("corpus.snapshot_ms", median(snapshotMS), "ms", len(snapshotMS), "serve")
	}
	plainE2E, _ := endToEnd(untraced)
	tracedE2E, _ := endToEnd(rounds)
	m.set("obs.overhead_cpu_ms_per_item", tracedE2E["cpu_ms_per_item"].Value-plainE2E["cpu_ms_per_item"].Value,
		"ms", len(untraced)+len(rounds), "serve")
	m.set("obs.overhead_allocs_per_item", tracedE2E["allocs_per_item"].Value-plainE2E["allocs_per_item"].Value,
		"count", len(untraced)+len(rounds), "serve")

	var scenes []synth.Scene
	if w.external {
		first := rounds[0]
		for i := 0; i < first.delivered; i++ {
			scenes = append(scenes, first.scenes[strconv.Itoa(i)])
		}
	} else {
		scenes = testScenes(sys, w.images(sys, seed, 0))
	}
	in, err := replayInput(sys, agent, scenes, work)
	if err != nil {
		return err
	}
	if err := replayLayers(ctx, sys, w, in, work, spans, m); err != nil {
		return err
	}
	rep.finish(w, append(untraced, rounds...), chk)
	rep.Extra["untraced_cpu_ms_per_item"] = plainE2E["cpu_ms_per_item"]
	rep.Extra["traced_cpu_ms_per_item"] = tracedE2E["cpu_ms_per_item"]
	return nil
}

// traceAcc pools the span trees of every traced item.
type traceAcc struct {
	queueUS, selectUS, reserveUS, holdUS []float64
	cpUS                                 map[string]float64
	totalUS                              float64
	items                                int
}

func newTraceAcc() *traceAcc { return &traceAcc{cpUS: make(map[string]float64)} }

// add reads each trace's spans on the wall clock: per-item queue wait
// and summed selection, every reserve wait and batch hold, and the
// critical path's attribution of the item's latency to stages. Span
// times are whole microseconds, so the stage figures are means, which
// resolve changes a median of tied whole numbers would not.
func (a *traceAcc) add(traces []ams.DecisionTrace) {
	for _, tr := range traces {
		if len(tr.Spans) == 0 {
			continue
		}
		a.items++
		var sel int64
		for _, sp := range tr.Spans {
			d := float64(sp.EndUS - sp.StartUS)
			switch sp.Name {
			case "queue-wait":
				a.queueUS = append(a.queueUS, d)
			case "select":
				sel += sp.EndUS - sp.StartUS
			case "reserve-wait":
				a.reserveUS = append(a.reserveUS, d)
			case "batch-hold":
				a.holdUS = append(a.holdUS, d)
			}
		}
		a.selectUS = append(a.selectUS, float64(sel))
		root := tr.Spans[0]
		a.totalUS += float64(root.EndUS - root.StartUS)
		for _, st := range tr.CriticalPath() {
			a.cpUS[st.Name] += float64(st.WallUS)
		}
	}
}

// criticalStages are the serve-layer stages an item's latency is
// attributed to.
var criticalStages = []string{"queue-wait", "select", "reserve-wait", "batch-hold", "exec", "commit", "other"}

// servedLayers derives the per-layer metrics the traced rounds measure.
func servedLayers(w workload, rounds []*roundRun, acc *traceAcc, m layerMetrics) {
	var (
		items, memWaits, steals, inferences, batches, batched int64
		records, syncs, disk                                  int64
		submitUS, util, skew, reopen, recovery                []float64
		peakMem                                               float64
		resident                                              int
		sizeFlush, flushes                                    float64
		fsync                                                 histTotal
	)
	for _, r := range rounds {
		n := int64(r.delivered)
		items += n
		submitUS = append(submitUS, r.submitUS...)
		st := r.stats
		memWaits += st.MemWaits
		steals += st.Steals
		inferences += r.inferences
		batches += st.Batches
		batched += st.BatchedRequests
		peakMem = max(peakMem, st.PeakMemMB)
		util = append(util, st.Utilization)
		skew = append(skew, assignedSkew(st))
		for _, t := range st.Telemetry {
			switch {
			case t.Name == "ams_batch_flush_total":
				flushes += t.Value
				if t.Labels["cause"] == "size" {
					sizeFlush += t.Value
				}
			case t.Name == "ams_corpus_fsync_seconds":
				fsync.count += t.Count
				fsync.sum += t.Sum
			}
		}
		records += r.corpus.JournalRecords
		syncs += r.corpus.Syncs
		disk += r.diskBytes
		resident = max(resident, r.residentPeak)
		if r.recovery != nil {
			reopen = append(reopen, r.recovery.reopenSec)
			recovery = append(recovery, r.recovery.reopenSec+r.recovery.replaySec)
		}
	}
	ni, fi := int(items), float64(items)
	m.set("ams.submit_us.p50", percentile(submitUS, 50), "us", len(submitUS), "serve")
	m.set("serve.select_us.mean", mean(acc.selectUS), "us", len(acc.selectUS), "serve")
	m.set("serve.queue_wait_us.mean", mean(acc.queueUS), "us", len(acc.queueUS), "serve")
	m.set("serve.queue_wait_us.p99", percentile(acc.queueUS, 99), "us", len(acc.queueUS), "serve")
	m.set("serve.reserve_wait_us.mean", mean(acc.reserveUS), "us", len(acc.reserveUS), "serve")
	m.set("serve.reserve_wait_us.p99", percentile(acc.reserveUS, 99), "us", len(acc.reserveUS), "serve")
	m.set("serve.mem_waits_per_item", float64(memWaits)/fi, "count", ni, "serve")
	ratio := 0.0
	if w.cfg.MemoryGB > 0 {
		ratio = peakMem / (w.cfg.MemoryGB * 1024)
	}
	m.set("serve.peak_mem_ratio", ratio, "ratio", len(rounds), "serve")
	m.set("serve.utilization", median(util), "ratio", len(rounds), "serve")
	for _, stage := range criticalStages {
		share := 0.0
		if acc.totalUS > 0 {
			share = acc.cpUS[stage] / acc.totalUS
		}
		m.set("serve.cp."+stage, share, "share", acc.items, "serve")
	}
	m.set("zoo.inferences_per_item", float64(inferences)/fi, "count", ni, "serve")
	perBatch := 0.0
	if batches > 0 {
		perBatch = float64(batched) / float64(batches)
	}
	m.set("batch.requests_per_batch", perBatch, "count", int(batches), "serve")
	sizeShare := 0.0
	if flushes > 0 {
		sizeShare = sizeFlush / flushes
	}
	m.set("batch.size_flush_share", sizeShare, "ratio", int(flushes), "serve")
	m.set("batch.hold_us.mean", mean(acc.holdUS), "us", len(acc.holdUS), "serve")
	m.set("shard.steals_per_item", float64(steals)/fi, "count", ni, "serve")
	m.set("shard.assigned_skew", median(skew), "ratio", len(rounds), "serve")
	if w.corpus == nil {
		return
	}
	m.set("corpus.records_per_item", float64(records)/fi, "count", ni, "serve")
	m.set("corpus.syncs_per_1k_items", float64(syncs)*1000/fi, "count", ni, "serve")
	m.set("corpus.journal_bytes_per_item", float64(disk)/fi, "bytes", ni, "serve")
	m.set("corpus.fsync_ms.mean", fsync.mean()*1e3, "ms", int(fsync.count), "serve")
	m.set("corpus.resident_peak", float64(resident), "count", ni, "serve")
	m.set("corpus.reopen_s", median(reopen), "s", len(reopen), "serve")
	m.set("ams.recovery_s", median(recovery), "s", len(recovery), "serve")
}

// assignedSkew is the busiest shard's home placements over the mean.
func assignedSkew(st ams.ServeStats) float64 {
	if len(st.PerShard) == 0 {
		return 1
	}
	var sum, most float64
	for _, ps := range st.PerShard {
		a := float64(ps.Assigned)
		sum += a
		most = max(most, a)
	}
	if sum == 0 {
		return 1
	}
	return most / (sum / float64(len(st.PerShard)))
}
