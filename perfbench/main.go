// Command perfbench is the repository's benchmark: four workloads that
// drive the public entry points a user drives — cuisines.Engine, and
// server.New plus cluster.New on loopback listeners configured as
// cmd/cuisined configures them — and report end-to-end metrics, or,
// with -trace 1, per-layer metrics timed from calls this package makes
// into each module. BENCHMARK.json at the repository root lists the
// workloads, the metrics and why each exists.
//
// Usage (perfbench/run.sh builds the binary and passes the flags on):
//
//	perfbench -workload cold-analysis -seed 1 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A fuller record of the run —
// seed, nproc, GOMAXPROCS, Go version, sample counts and, when traced,
// the spans — is written under .bench_build/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cuisines/internal/corpus"
)

// config is one invocation's settings.
type config struct {
	workload   string
	seed       uint64
	corpusSeed uint64
	seconds    int
	trace      bool
	procs      int    // callers and connections: never more than nproc
	workDir    string // scratch for cache dirs; removed at exit
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	attempted int
	failed    int
	// problems are correctness failures outside any one operation
	// (reference disagreement, replay mismatch, claims not holding).
	problems []string
	metrics  map[string]metric
	samples  map[string]int // sample count behind each timing
	spans    []span
	notes    map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}, notes: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each name in BENCHMARK.json to the function that runs it.
var workloads = map[string]func(*config) (*report, error){
	"cold-analysis": runCold,
	"warm-restart":  runWarm,
	"peer-warm":     runPeer,
	"serve-mixed":   runMixed,
}

// setupReps is how many times each run builds its starting state;
// setup_s is their median. Every build is a full cold analysis, so two
// is what the run time affords.
const setupReps = 2

func main() {
	var (
		workload = flag.String("workload", "", "workload name (cold-analysis, warm-restart, peer-warm, serve-mixed)")
		seed     = flag.Uint64("seed", 0, "benchmark seed: picks the corpus seed and the serve-mixed variant order (0 = the paper's default corpus)")
		seconds  = flag.Int("seconds", 12, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "work"), 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(filepath.Join(".bench_build", "work"), *workload+"-")
	if err != nil {
		fatal(err)
	}
	cfg := &config{
		workload:   *workload,
		seed:       *seed,
		corpusSeed: corpus.DefaultSeed + *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		procs:      runtime.NumCPU(),
		workDir:    work,
	}
	rep, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	for _, name := range selectMetrics(rep, cfg.trace) {
		rep.problem("metric %s was not measured", name)
	}
	if err := writeRecord(filepath.Join(".bench_build", "results"), cfg, rep); err != nil {
		fatal(err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0 && rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// writeRecord writes the full result record: the metrics plus what a
// reader needs to compare two runs — seed, machine shape, toolchain,
// sample counts — and, for a traced run, the spans.
func writeRecord(dir string, cfg *config, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	const maxSpans = 20000 // keeps the record small; metrics use every span
	spans := rep.spans
	if len(spans) > maxSpans {
		rep.notes["spans_dropped_from_record"] = len(spans) - maxSpans
		spans = spans[:maxSpans]
	}
	rec := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"corpus_seed": cfg.corpusSeed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"attempted":   rep.attempted,
		"failed":      rep.failed,
		"problems":    rep.problems,
		"metrics":     rep.metrics,
		"samples":     rep.samples,
		"notes":       rep.notes,
		"spans":       spans,
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// timeSetup builds the starting state setupReps times and returns the
// median build time in seconds. build receives the repetition index;
// every repetition but the last must release what it built.
func timeSetup(build func(rep int) error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := build(i); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// phases splits the measurement window. An untraced run measures for
// the whole window; a traced run measures its first half untraced and
// its second half traced, so tracing overhead is the difference
// between two halves of one run on one machine.
func phases(cfg *config, start time.Time) (untracedEnd, tracedEnd time.Time) {
	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		return start.Add(total), time.Time{}
	}
	return start.Add(total / 2), start.Add(total)
}

// finite replaces NaN (no samples) with 0 so the JSON stays valid; a
// zero end-to-end value then flags the missing samples to the reader.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
