package ams

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ams/internal/obs"
)

// TelemetryMetric is one metric series' point-in-time state, as carried
// in ServeStats.Telemetry: counters and gauges report Value; histograms
// additionally report Count, Sum, and the nearest-rank quantiles (Value
// is then the mean). The same series, in the same units, appear on the
// HTTP exporter's /metrics endpoint — DESIGN.md §8 catalogs them.
type TelemetryMetric struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"` // "counter", "gauge", or "histogram"
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	Count  int64             `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	P50    float64           `json:"p50,omitempty"`
	P95    float64           `json:"p95,omitempty"`
	P99    float64           `json:"p99,omitempty"`
}

func telemetryFromObs(ms []obs.Metric) []TelemetryMetric {
	if ms == nil {
		return nil
	}
	out := make([]TelemetryMetric, len(ms))
	for i, m := range ms {
		out[i] = TelemetryMetric{
			Name: m.Name, Kind: m.Kind, Labels: m.Labels,
			Value: m.Value, Count: m.Count, Sum: m.Sum,
			P50: m.P50, P95: m.P95, P99: m.P99,
		}
	}
	return out
}

// A DecisionEvent is one structured scheduling decision from an item's
// trace, with the constraint values the worker saw at decision time.
// Kinds: "selected" (policy picked Model), "skipped-over-budget" (the
// policy declined with unexecuted models remaining), "mem-stall"
// (selection waited for memory to free), "deferred-to-batch" (execution
// handed to a batch lane, Queued deep), "exec" (direct execution), and
// "commit" (schedule finalized).
type DecisionEvent struct {
	Kind        string  `json:"kind"`
	Model       int     `json:"model"`        // -1 when not model-specific
	RemainingMS float64 `json:"remaining_ms"` // deadline budget left
	AvailMemMB  float64 `json:"avail_mem_mb"` // memory-accountant headroom
	Queued      int     `json:"queued,omitempty"`
	Note        string  `json:"note,omitempty"`
}

// A TraceSpanLink is a causality edge that crosses item or shard
// boundaries: "steal" links a stolen item's home (victim) shard to the
// shard that executed it; "batch" links a waiter span to its shared
// batched execution (ID is the batch identity).
type TraceSpanLink struct {
	Kind string `json:"kind"` // "steal" | "batch"
	From int    `json:"from"`
	To   int    `json:"to"`
	ID   int64  `json:"id,omitempty"`
}

// A TraceSpan is one timed stage of an item's lifecycle — queue wait,
// selection rounds, reserve wait, batch hold, execution, commit — in a
// parent/child tree under span 0 (the root "item" span). Offsets are
// measured from the item's arrival on both clocks: StartUS/EndUS in
// wall microseconds and VStartMS/VEndMS in virtual milliseconds (wall ÷
// TimeScale), so simulated and real-time runs of one schedule read
// identically in the virtual columns.
type TraceSpan struct {
	ID       int             `json:"id"`
	Parent   int             `json:"parent"` // -1 for the root span
	Name     string          `json:"name"`
	Model    int             `json:"model"` // -1 when not model-specific
	StartUS  int64           `json:"start_us"`
	EndUS    int64           `json:"end_us"`
	VStartMS float64         `json:"vstart_ms"`
	VEndMS   float64         `json:"vend_ms"`
	Batch    int64           `json:"batch,omitempty"`
	BatchN   int             `json:"batch_n,omitempty"`
	Links    []TraceSpanLink `json:"links,omitempty"`
	Note     string          `json:"note,omitempty"`
}

// A DecisionTrace is one completed item's scheduling narrative — the
// ordered decision events from dequeue to commit, plus the causal span
// tree of its lifecycle stages. Traces live in a bounded ring (the most
// recent TraceCapacity items), retrievable by recency (Traces), by
// submission tag (TraceFor), or over HTTP as JSON (/tracez; add
// ?format=chrome for Perfetto). DroppedEvents and DroppedSpans count
// entries past the per-item caps. Home and Shard differ exactly when
// the item was stolen across shards.
type DecisionTrace struct {
	Item          int             `json:"item"`
	Tag           string          `json:"tag,omitempty"`
	Seq           int64           `json:"seq"`
	Events        []DecisionEvent `json:"events"`
	DroppedEvents int             `json:"dropped_events,omitempty"`

	Shard        int         `json:"shard"`
	Home         int         `json:"home"`
	Stolen       bool        `json:"stolen,omitempty"`
	TimeScale    float64     `json:"time_scale,omitempty"`
	Spans        []TraceSpan `json:"spans,omitempty"`
	DroppedSpans int         `json:"dropped_spans,omitempty"`
}

func traceFromObs(tr obs.ItemTrace) DecisionTrace {
	out := DecisionTrace{
		Item: tr.Item, Tag: tr.Tag, Seq: tr.Seq, DroppedEvents: tr.Dropped,
		Events: make([]DecisionEvent, len(tr.Events)),
		Shard:  tr.Shard, Home: tr.Home, Stolen: tr.Stolen,
		TimeScale: tr.Scale, DroppedSpans: tr.DroppedSpans,
	}
	for i, ev := range tr.Events {
		out.Events[i] = DecisionEvent{
			Kind: ev.Kind, Model: ev.Model, RemainingMS: ev.RemainingMS,
			AvailMemMB: ev.AvailMemMB, Queued: ev.Queued, Note: ev.Note,
		}
	}
	if len(tr.Spans) > 0 {
		out.Spans = make([]TraceSpan, len(tr.Spans))
		for i, sp := range tr.Spans {
			ts := TraceSpan{
				ID: sp.ID, Parent: sp.Parent, Name: sp.Name, Model: sp.Model,
				StartUS: sp.StartUS, EndUS: sp.EndUS,
				VStartMS: sp.VStartMS, VEndMS: sp.VEndMS,
				Batch: sp.Batch, BatchN: sp.BatchN, Note: sp.Note,
			}
			for _, ln := range sp.Links {
				ts.Links = append(ts.Links, TraceSpanLink{Kind: ln.Kind, From: ln.From, To: ln.To, ID: ln.ID})
			}
			out.Spans[i] = ts
		}
	}
	return out
}

// A CriticalPathStage is one attributed stage of an item's critical
// path: how much of the item's end-to-end latency the stage accounts
// for, in wall microseconds and virtual milliseconds, and as a fraction
// of the whole.
type CriticalPathStage struct {
	Name   string  `json:"name"`
	Model  int     `json:"model"` // -1 when not model-specific
	WallUS int64   `json:"wall_us"`
	VirtMS float64 `json:"virt_ms"`
	Frac   float64 `json:"frac"`
}

// CriticalPath attributes the trace's end-to-end latency to its stages
// — the answer to "where did this item's deadline budget go". Every
// instant of the root span is charged to the latest-started child span
// covering it; instants no child covers are charged to "other"
// (scheduler CPU, loop overhead). Stages aggregate by (name, model) and
// sort by descending wall time. Nil when the trace carries no spans.
func (t DecisionTrace) CriticalPath() []CriticalPathStage {
	if len(t.Spans) == 0 {
		return nil
	}
	itr := obs.ItemTrace{Scale: t.TimeScale, Spans: make([]obs.Span, len(t.Spans))}
	for i, sp := range t.Spans {
		itr.Spans[i] = obs.Span{
			ID: sp.ID, Parent: sp.Parent, Name: sp.Name, Model: sp.Model,
			StartUS: sp.StartUS, EndUS: sp.EndUS,
			VStartMS: sp.VStartMS, VEndMS: sp.VEndMS,
		}
	}
	stages := obs.CriticalPath(itr)
	out := make([]CriticalPathStage, len(stages))
	for i, st := range stages {
		out[i] = CriticalPathStage{Name: st.Name, Model: st.Model,
			WallUS: st.WallUS, VirtMS: st.VirtMS, Frac: st.Frac}
	}
	return out
}

// An SLOObjective is one parsed latency objective: "the Quantile
// fraction of items must complete within ThresholdSec".
type SLOObjective struct {
	Name         string
	Quantile     float64 // good-fraction target in (0, 1), e.g. 0.99
	ThresholdSec float64
}

// ParseSLO parses a latency-objective spec of the form "p99<250ms" —
// optionally named, "checkout:p95<1s". The quantile is the objective's
// good-fraction target; the duration (any time.ParseDuration spelling)
// is its latency threshold on the simulated clock. The name defaults to
// the quantile spelling.
func ParseSLO(spec string) (SLOObjective, error) {
	var o SLOObjective
	body := spec
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		o.Name, body = spec[:i], spec[i+1:]
	}
	q, thr, ok := strings.Cut(body, "<")
	if !ok || !strings.HasPrefix(q, "p") {
		return o, fmt.Errorf("ams: bad SLO spec %q (want e.g. \"p99<250ms\" or \"name:p95<1s\")", spec)
	}
	pct, err := strconv.ParseFloat(q[1:], 64)
	if err != nil || !(pct > 0 && pct < 100) { // also rejects NaN
		return o, fmt.Errorf("ams: bad SLO quantile in %q (want p1–p99.999)", spec)
	}
	d, err := time.ParseDuration(thr)
	if err != nil || d <= 0 {
		return o, fmt.Errorf("ams: bad SLO threshold in %q: need a positive duration", spec)
	}
	o.Quantile = pct / 100
	o.ThresholdSec = d.Seconds()
	if o.Name == "" {
		o.Name = q
	}
	return o, nil
}

// MetricsAddr reports the HTTP exporter's bound address — useful with
// ServeConfig.MetricsAddr ":0" — or "" when the exporter is off.
func (sv *Server) MetricsAddr() string {
	return sv.exporter.Addr()
}

// Traces returns up to n of the most recently completed items' decision
// traces, newest first. Nil unless ServeConfig.Telemetry is on.
func (sv *Server) Traces(n int) []DecisionTrace {
	trs := sv.tracer.Recent(n)
	if trs == nil {
		return nil
	}
	out := make([]DecisionTrace, len(trs))
	for i, tr := range trs {
		out[i] = traceFromObs(tr)
	}
	return out
}

// TraceFor returns the most recent resident decision trace for an item
// submitted with the given tag (ItemID), if it is still in the ring.
func (sv *Server) TraceFor(tag string) (DecisionTrace, bool) {
	tr, ok := sv.tracer.ByTag(tag)
	if !ok {
		return DecisionTrace{}, false
	}
	return traceFromObs(tr), true
}

// SlowestTrace returns the resident trace with the longest end-to-end
// latency (by root-span wall duration) — the natural input to
// CriticalPath / WriteCriticalPath after a run. False when no spanned
// traces are resident (telemetry off, or nothing completed).
func (sv *Server) SlowestTrace() (DecisionTrace, bool) {
	if sv.tracer == nil {
		return DecisionTrace{}, false
	}
	var (
		best    DecisionTrace
		bestDur int64 = -1
	)
	for _, tr := range sv.Traces(sv.tracer.Capacity()) {
		if len(tr.Spans) == 0 {
			continue
		}
		if d := tr.Spans[0].EndUS - tr.Spans[0].StartUS; d > bestDur {
			best, bestDur = tr, d
		}
	}
	return best, bestDur >= 0
}
