package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest parent/change pairs a gain may be claimed on.
const minPairs = 10

// Verdicts of a comparison.
const (
	improved   = "improved"
	noWorse    = "no worse"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// comparison is one workload x metric row.
type comparison struct {
	parent, change []float64
	pairs          [][2]float64 // (parent, change) runs with the same seed
	lowerIsBetter  bool
	bound          float64
}

// wins counts the pairs the change reads better in; ties count for
// neither side.
func (c comparison) wins() int {
	n := 0
	for _, p := range c.pairs {
		if c.better(p[1], p[0]) {
			n++
		}
	}
	return n
}

func (c comparison) better(a, b float64) bool {
	if c.lowerIsBetter {
		return a < b
	}
	return a > b
}

// verdict applies the benchmark's rules. A gain needs at least ten
// pairs, a win in nine tenths of them, and a median gap wider than the
// parent's interquartile range. A metric whose run-to-run spread exceeds
// its bound is unresolved, unless every change run reads better than
// every parent run. Otherwise the change regressed when its median is
// worse than the parent's by more than the bound.
func (c comparison) verdict() string {
	if len(c.parent) == 0 || len(c.change) == 0 {
		return unresolved
	}
	medP, medC := median(c.parent), median(c.change)
	q1, q3 := quartiles(c.parent)
	wins := c.wins()
	if len(c.pairs) >= minPairs && float64(wins) >= 0.9*float64(len(c.pairs)) &&
		c.better(medC, medP) && math.Abs(medC-medP) > q3-q1 {
		return improved
	}
	if max(spread(c.parent), spread(c.change)) > c.bound && !c.separated() {
		return unresolved
	}
	worse := (medC - medP) / math.Abs(medP)
	if !c.lowerIsBetter {
		worse = -worse
	}
	if medP != 0 && worse > c.bound {
		return regressed
	}
	return noWorse
}

// separated reports whether every change run reads better than every
// parent run.
func (c comparison) separated() bool {
	for _, a := range c.change {
		for _, b := range c.parent {
			if !c.better(a, b) {
				return false
			}
		}
	}
	return true
}

// loadResults reads the untraced result files of a directory, keyed by
// workload and then seed.
func loadResults(dir string) (map[string]map[uint64]*report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[uint64]*report)
	for _, f := range files {
		if strings.HasSuffix(f, "-spans.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[uint64]*report)
		}
		out[r.Workload][r.Seed] = &r
	}
	return out, nil
}

// compareMain prints one row per workload and end-to-end metric.
func compareMain(w io.Writer, parentDir, changeDir, defPath string) error {
	if parentDir == "" || changeDir == "" {
		return fmt.Errorf("compare needs --parent and --change result directories")
	}
	b, err := os.ReadFile(defPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", defPath, err)
	}
	parent, err := loadResults(parentDir)
	if err != nil {
		return err
	}
	change, err := loadResults(changeDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-34s %-34s %-34s %-7s %s\n", "workload", "metric",
		"parent median [q1, q3] (n)", "change median [q1, q3] (n)", "wins", "verdict")
	for _, wl := range workloadNames {
		if parent[wl] == nil && change[wl] == nil {
			continue
		}
		var seeds []uint64
		for s := range parent[wl] {
			if change[wl][s] != nil {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, m := range def.EndToEnd {
			c := comparison{lowerIsBetter: m.Better == "lower", bound: m.Bound}
			for _, r := range parent[wl] {
				c.parent = append(c.parent, r.Metrics[m.Name].Value)
			}
			for _, r := range change[wl] {
				c.change = append(c.change, r.Metrics[m.Name].Value)
			}
			for _, s := range seeds {
				c.pairs = append(c.pairs, [2]float64{parent[wl][s].Metrics[m.Name].Value, change[wl][s].Metrics[m.Name].Value})
			}
			fmt.Fprintf(w, "%-15s %-34s %-34s %-34s %-7s %s\n", wl, m.Name+" ("+m.Unit+")",
				summary(c.parent), summary(c.change), fmt.Sprintf("%d/%d", c.wins(), len(c.pairs)), c.verdict())
		}
	}
	return nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q1, q3, len(xs))
}
