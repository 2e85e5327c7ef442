// Command servebench is the serving benchmark: it runs one named
// workload through the real concurrent ams.Server in a closed loop,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) with their units and sample counts.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through servebench/run.sh from the repository root, which
// builds it first:
//
//	bash servebench/run.sh --workload deadline-cpu --seed 1 --seconds 20 --trace 0
//
// --workload all runs the three workloads one after another, printing
// one result line each. Result files (with host and run facts, per-round
// series and, for traced runs, the benchmark's spans) go to
// .bench_build/results.
//
// Compare mode reads two directories of result files (parent and
// change, the same workloads and seeds) and prints a verdict per
// workload and end-to-end metric:
//
//	bash servebench/run.sh --compare --parent DIR --change DIR
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run: deadline-cpu, memory-packed, ingest-durable, or all (one after another)")
		seed     = fs.Uint64("seed", 1, "seed of the workload's item stream")
		seconds  = fs.Float64("seconds", 10, "how long to measure")
		trace    = fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		root     = fs.String("root", ".", "repository root; results go under <root>/.bench_build/results")
		compare  = fs.Bool("compare", false, "compare two result directories instead of running")
		parent   = fs.String("parent", "", "compare: result directory of the parent commit")
		change   = fs.String("change", "", "compare: result directory of the change")
		benchDef = fs.String("bench", "BENCHMARK.json", "compare: benchmark definition holding the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := compareMain(stdout, *parent, *change, *benchDef); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	var ws []workload
	for _, n := range names {
		w, err := workloadByName(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 2
		}
		ws = append(ws, w)
	}
	status := 0
	for _, w := range ws {
		status = max(status, runWorkload(w, *seed, *seconds, *trace == 1, *root, stdout))
	}
	return status
}

// runWorkload runs one workload, prints its report to standard error
// and its result line to stdout, and saves its result file.
func runWorkload(w workload, seed uint64, seconds float64, trace bool, root string, stdout io.Writer) int {
	out := filepath.Join(root, ".bench_build", "results")
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("work-%s-%d-%d", w.name, seed, os.Getpid()))
	rep, err := measure(context.Background(), w, seed, seconds, trace, work, root)
	err = errors.Join(err, os.RemoveAll(work))
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(os.Stderr)
	if err := rep.save(out); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(rep.final())
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "servebench: %s: output checks failed\n", w.name)
		return 1
	}
	return 0
}

// metricValue is one reported metric: its value, unit, and the number of
// samples behind it (items for a per-item figure, rounds for a median of
// rounds, calls for a per-call timing).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Source says where a per-layer figure came from: "serve" (the
	// traced serving rounds), "replay" (the layer replay), "setup", or
	// "computed" (derived from tensor sizes, not measured).
	Source string `json:"source,omitempty"`
}

// phase counts one phase's items.
type phase struct {
	Name      string `json:"name"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// report is one run's result file.
type report struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Host      hostFacts              `json:"host"`
	Config    map[string]any         `json:"config"`
	Rounds    int                    `json:"rounds"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Failures  []string               `json:"failures,omitempty"`
	Phases    []phase                `json:"phases"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Extra holds figures printed for reading but not part of the
	// benchmark's metric set (e.g. failed_ratio, always 0 when correct).
	Extra map[string]metricValue `json:"extra,omitempty"`
	// RoundSeries holds each end-to-end median's per-round values, and
	// LatencySamples the items behind each round's percentiles.
	RoundSeries    map[string][]float64 `json:"round_series,omitempty"`
	LatencySamples []int                `json:"latency_samples,omitempty"`
	SpansFile      string               `json:"spans_file,omitempty"`
	StartedAt      string               `json:"started_at"`
	spans          *spanLog
}

// final is the last line of standard output.
type final struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) final() final {
	f := final{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]finalMetric{}}
	for k, m := range r.Metrics {
		f.Metrics[k] = finalMetric{Value: m.Value, Unit: m.Unit}
	}
	return f
}

// print writes the human-readable report: phases, then every metric by
// name with its unit and sample count.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d rounds, host %s (%d CPUs, GOMAXPROCS %d, %s)\n",
		r.Workload, r.Seed, r.Trace, r.Rounds, r.Host.CPUModel, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-22s sent %7d  succeeded %7d  failed %d\n", p.Name, p.Sent, p.Succeeded, p.Failed)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	printMetrics(w, r.Metrics)
	printMetrics(w, r.Extra)
}

func printMetrics(w io.Writer, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		src := ""
		if m.Source != "" {
			src = " [" + m.Source + "]"
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-8s n=%d%s\n", k, m.Value, m.Unit, m.Samples, src)
	}
}

// save writes the result file (and, for a traced run, its spans).
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, btoi(r.Trace))
	if r.spans != nil {
		r.SpansFile = base + "-spans.json"
		if err := r.spans.write(filepath.Join(dir, r.SpansFile)); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// configFacts records the run facts of a workload's configuration.
func configFacts(w workload) map[string]any {
	c := map[string]any{
		"system":        fmt.Sprintf("MSCOCO, %d images, seed %d, DuelingDQN, %d epochs, hidden %d", systemSize, systemSeed, trainEpochs, hiddenWidth),
		"policy":        w.cfg.Policy.Name(),
		"workers":       w.cfg.Workers,
		"deadline_s":    w.cfg.DeadlineSec,
		"memory_gb":     w.cfg.MemoryGB,
		"shards":        w.segments(),
		"placement":     w.cfg.ShardPlacement,
		"steal":         w.cfg.ShardSteal,
		"batch_size":    w.cfg.BatchSize,
		"batch_hold_ms": w.cfg.BatchHoldMS,
		"pred_cache":    w.cfg.PredictorCache,
		"telemetry":     w.cfg.Telemetry,
		"time_scale":    w.cfg.TimeScale,
		"window":        w.window,
		"round_items":   w.roundItems,
		"external":      w.external,
		"setup_repeats": setupRepeats,
	}
	if w.corpus != nil {
		c["corpus"] = *w.corpus
	}
	return c
}

func newReport(w workload, seed uint64, seconds float64, trace bool, root string) *report {
	return &report{
		Workload:  w.name,
		Why:       w.why,
		Seed:      seed,
		Trace:     trace,
		Seconds:   seconds,
		Host:      gatherFacts(root),
		Config:    configFacts(w),
		Metrics:   map[string]metricValue{},
		Extra:     map[string]metricValue{},
		StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
}
