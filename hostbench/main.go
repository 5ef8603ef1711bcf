// Command hostbench is the host-clock benchmark of the swATOP reproduction.
// It measures what the Go process spends to tune, replay and serve the
// paper's networks — the cost a user of the system waits for — and checks
// on every run that the simulated SW26010 machine seconds of the schedules
// it replays are bit-identical to the recorded references.
//
// Usage (from the repository root):
//
//	bash hostbench/run.sh --workload tune-cold|replay-warm|serve-open \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics — the end-to-end metrics with --trace 0, the per-layer
// metrics of a separate traced run with --trace 1. Earlier lines are the
// human-readable report: the environment, every metric with its unit and
// clock, and any correctness problem. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// Clocks a number can be on.
const (
	clockHost    = "host"    // wall time or allocations of this Go process
	clockMachine = "machine" // the simulated SW26010 clock and its counters
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, clock string
}

// endToEnd are the --trace 0 metrics, reported by every workload. An
// operation is one cold tune of the three nets (tune-cold), one warm VGG16
// inference (replay-warm) or one request with nothing else in flight
// (serve-open). Tails are in the human-readable report, with their sample
// counts.
var endToEnd = []metricDef{
	{"setup_s", "s", clockHost},
	{"op_ms_p50", "ms", clockHost},
	{"alloc_mb_per_op", "MB", clockHost},
}

// perLayer are the --trace 1 metrics, reported by every workload (zero
// where the layer does no work in the measured region).
var perLayer = []metricDef{
	{"autotune.candidates", "count", clockHost},
	{"autotune.finalists", "count", clockHost},
	{"autotune.cand_per_s", "1/s", clockHost},
	{"autotune.rank_s", "s", clockHost},
	{"autotune.measure_s", "s", clockHost},
	{"cache.puts", "count", clockHost},
	{"cache.misses", "count", clockHost},
	{"cache.hit_ratio", "ratio", clockHost},
	{"infer.resolve_ms", "ms", clockHost},
	{"infer.exec_ms", "ms", clockHost},
	{"infer.other_ms", "ms", clockHost},
	{"mem.allocs_per_infer", "count", clockHost},
	{"mem.gc_per_infer", "count", clockHost},
	{"compile.ms", "ms", clockHost},
	{"exec.ms", "ms", clockHost},
	{"sw.dma_ops", "count", clockMachine},
	{"sw.gemm_calls", "count", clockMachine},
	{"exec.ns_per_dma_op", "ns", clockHost},
	{"fleet.group_exec_ms_max", "ms", clockHost},
	{"fleet.group_skew", "ratio", clockHost},
	{"fleet.comm_ms", "ms", clockMachine},
	{"serve.batch_mean", "count", clockHost},
	{"serve.pad_ratio", "ratio", clockHost},
	{"serve.queue_ms_p50", "ms", clockHost},
	{"serve.queue_ms_p90", "ms", clockHost},
	{"serve.batch_ms_p50", "ms", clockHost},
	{"serve.run_ms_p50", "ms", clockHost},
	{"serve.run_ms_p90", "ms", clockHost},
	{"serve.lat_ms_p50.r8", "ms", clockHost},
	{"serve.lat_ms_p50.r20", "ms", clockHost},
	{"serve.lat_ms_p90.r20", "ms", clockHost},
	{"serve.shed", "count", clockHost},
	{"serve.expired", "count", clockHost},
	{"gen.late_ms_max", "ms", clockHost},
	{"trace.overhead_pct", "%", clockHost},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workers  int
	ref      *reference
}

// minOps is the fewest requests the 20 req/s serving phase sends, so its
// p90 has at least ten samples beyond it.
const minOps = 100

// note is one human-readable report line.
type note struct {
	name  string
	value float64
	unit  string
	clock string
	extra string
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	notes             []note
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// problem records a correctness failure; any problem fails the run.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// info adds a human-readable line (not part of the JSON metrics).
func (r *report) info(name string, value float64, unit, clock, extra string) {
	r.notes = append(r.notes, note{name, value, unit, clock, extra})
}

// timing records a host-clock timing sample as its median and tail, with
// the sample count, in the human-readable report.
func (r *report) timing(name string, xs []float64) {
	s := summarize(xs)
	r.info(name+".p50", s.pct(50), "ms", clockHost, fmt.Sprintf("n=%d", s.n()))
	if p, v, ok := s.tail(); ok && p > 50 {
		r.info(fmt.Sprintf("%s.p%g", name, p), v, "ms", clockHost,
			fmt.Sprintf("n=%d, %d beyond", s.n(), s.beyond(p)))
	}
}

var runners = map[string]func(context.Context, config) (*report, error){
	"tune-cold":   tuneCold,
	"replay-warm": replayWarm,
	"serve-open":  serveOpen,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "tune-cold, replay-warm or serve-open")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := runners[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "hostbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*workload, *seconds, *traceFlag)
		return 2
	}
	ref, err := loadReference("BENCH_baseline.json")
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	// The load stays inside this process and never exceeds the host:
	// scheduler threads and tuning workers are both capped at nproc.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		workers:  nproc,
		ref:      ref,
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Fprintf(stdout, "hostbench workload=%s seed=%d seconds=%d trace=%d\n",
		cfg.workload, cfg.seed, *seconds, *traceFlag)
	fmt.Fprintf(stdout, "env nproc=%d gomaxprocs=%d gogc=%s go=%s workers=%d\n",
		nproc, runtime.GOMAXPROCS(0), gogc, runtime.Version(), cfg.workers)

	ctx := context.Background()
	rep, err := fn(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	// The functional oracle runs after every timed region.
	t0 := time.Now()
	if err := oracle(ctx, 4*cfg.workers); err != nil {
		rep.problem("functional oracle (resnet batch 1): %v", err)
	}
	rep.info("oracle_s", time.Since(t0).Seconds(), "s", clockHost, "resnet b1 functional check, untimed")
	return emit(stdout, cfg, rep)
}

// emit prints the human-readable report and the final JSON line, returning
// the exit code (1 when the correctness gate failed).
func emit(w io.Writer, cfg config, rep *report) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, n := range rep.notes {
		if n.unit == "" {
			fmt.Fprintf(w, "info %-28s %s\n", n.name, n.extra)
			continue
		}
		fmt.Fprintf(w, "info %-28s %14.6g %-6s %-7s %s\n", n.name, n.value, n.unit, n.clock, n.extra)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s was not measured", d.name)
			v = 0
		}
		out[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "metric %-28s %14.6g %-6s %s\n", d.name, v, d.unit, d.clock)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintf(w, "FAIL %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// errorRate adds the failed ÷ attempted line to the report.
func (r *report) errorRate() {
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	r.info("error_rate", rate, "ratio", clockHost,
		fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted))
}

// sortedKeys is a deterministic iteration order for small maps.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
