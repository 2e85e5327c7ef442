package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory during the run and are written out when it ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog records the benchmark's own spans around its calls into each
// layer. A nil log records nothing, so untraced runs pay only a nil
// check.
type spanLog struct {
	base    time.Time
	spans   []span
	dropped int
	scopes  []int // open scopes; new spans are children of the innermost
}

// maxSpans caps a run's span memory; later spans are counted, not kept.
const maxSpans = 1 << 20

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (l *spanLog) now() int64 { return time.Since(l.base).Microseconds() }

// begin opens a span under the innermost open scope and returns its id.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	parent := -1
	if n := len(l.scopes); n > 0 {
		parent = l.scopes[n-1]
	}
	id := len(l.spans)
	t := l.now()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartUS: t, EndUS: t})
	return id
}

// push opens a span that later spans nest under until pop.
func (l *spanLog) push(name string) int {
	id := l.begin(name)
	if l != nil {
		l.scopes = append(l.scopes, id)
	}
	return id
}

// pop closes the innermost scope opened by push.
func (l *spanLog) pop() {
	if l == nil || len(l.scopes) == 0 {
		return
	}
	l.end(l.scopes[len(l.scopes)-1])
	l.scopes = l.scopes[:len(l.scopes)-1]
}

// end closes a span opened by begin.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].EndUS = l.now()
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes sums, per span name, the duration and the self time: a
// span's duration minus the part of its interval its children cover.
func selfTimes(spans []span) []spanTotal {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	acc := make(map[string]*spanTotal)
	for _, s := range spans {
		t := acc[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			acc[s.Name] = t
		}
		dur := s.EndUS - s.StartUS
		t.Count++
		t.TotalS += float64(dur) / 1e6
		t.SelfS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]spanTotal, 0, len(acc))
	for _, t := range acc {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// write saves the spans and their per-name self times as JSON.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Dropped int         `json:"dropped"`
		Totals  []spanTotal `json:"totals"`
		Spans   []span      `json:"spans"`
	}{l.dropped, selfTimes(l.spans), l.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
