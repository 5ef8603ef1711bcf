// Package infer is the network inference runtime: it executes a whole
// internal/graph network on one simulated SW26010 core group, resolving
// each tuned operator's schedule from a cache.Library (tuning misses
// through the autotune pipeline), planning main-memory buffer reuse across
// layers, and merging the per-layer execution timelines into a single
// network timeline. It is the repo's equivalent of the paper's swCaffe
// integration: the tuned operators stop being isolated benchmarks and
// serve real end-to-end inference.
package infer

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"swatop/internal/autotune"
	"swatop/internal/baseline"
	"swatop/internal/cache"
	"swatop/internal/conv"
	"swatop/internal/costmodel"
	"swatop/internal/exec"
	"swatop/internal/faults"
	"swatop/internal/gemm"
	"swatop/internal/graph"
	"swatop/internal/ir"
	"swatop/internal/metrics"
	"swatop/internal/obsrv"
	"swatop/internal/reqtrace"
	"swatop/internal/search"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// Engine runs networks. Construct once (fitting the cost model is the
// per-machine offline calibration) and reuse across runs; concurrent Runs
// on one Engine are safe.
type Engine struct {
	model *costmodel.GemmModel
	// compiled is the compiled-schedule table: library hits' compiled
	// programs and timed-only seconds, keyed by compiledKey (see
	// resolveOp).
	compiled lazyMap[compiledSchedule]
	// baselines memoizes baselineSeconds per node shape.
	baselines lazyMap[baselineTime]
}

// lazyMap is a mutex-guarded string-keyed memo whose storage is created on
// first put, so NewEngine pays nothing for an engine that never replays.
type lazyMap[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

func (l *lazyMap[V]) get(key string) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m[key]
	return v, ok
}

func (l *lazyMap[V]) put(key string, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = map[string]V{}
	}
	l.m[key] = v
}

// compiledSchedule is one compiled-schedule table entry: the program a
// cached strategy compiles to and its timed-only seconds on a fresh
// machine (what resolveConv compares methods by).
type compiledSchedule struct {
	prog *ir.Program
	secs float64
}

// compiledKey keys the compiled-schedule table by operator signature and
// strategy: a library entry replaced under the same signature never
// resolves to the old program.
func compiledKey(signature, strategy string) string {
	return signature + "\x00" + strategy
}

// baselineTime is one memoized baseline measurement; ok is false when the
// shape has no usable manual-library program.
type baselineTime struct {
	secs float64
	ok   bool
}

// NewEngine fits the autotuner's cost model.
func NewEngine() (*Engine, error) {
	m, err := costmodel.FitGemmModel()
	if err != nil {
		return nil, err
	}
	return &Engine{model: m}, nil
}

// Options configures one network run.
type Options struct {
	// Workers is the tuning concurrency (autotune.Options.Workers). The
	// resolved schedules — and therefore the network's machine seconds —
	// are identical for every worker count.
	Workers int
	// Library, when non-nil, is consulted before tuning and records fresh
	// results. Within a single run, repeated operator shapes resolve once
	// even without a library.
	Library *cache.Library
	// Fallback degrades failed tuning runs to the manual baseline
	// schedule (never cached) instead of failing the whole network.
	Fallback bool
	// NoTune disables the tuner entirely: operators resolve from the
	// library or — with Fallback set — degrade straight to the baseline
	// schedule. It is the serving daemon's circuit-breaker open state:
	// when tuning keeps failing, stop attempting it and serve degraded
	// results until a probe succeeds. Without Fallback, a library miss
	// under NoTune is an error.
	NoTune bool
	// Faults, when non-nil, is threaded into tuning measurements only;
	// the network's own execution machine stays clean — degradation is
	// the recovery path and must work while tuning is being sabotaged.
	Faults *faults.Injector
	// Retry / MaxCandidateFailures mirror the tuner's resilience knobs.
	Retry                autotune.Retry
	MaxCandidateFailures int
	// Searcher switches layer tuning to sample-efficient search
	// (autotune.Options.Searcher); SearchBudget caps the measured fraction
	// of each space and SearchSeed pins the searcher RNG. Nil Searcher
	// keeps the exhaustive walk. The attached Library doubles as the
	// transfer source: later layers seed their populations from earlier
	// layers' cached winners.
	Searcher     search.Searcher
	SearchBudget float64
	SearchSeed   uint64
	// Functional executes with real float32 data and checks every tuned
	// operator against its reference oracle (slow: use tiny networks).
	// Timed-only otherwise, fast-forwarding long loops — machine seconds
	// stay deterministic within each mode, but differ slightly between
	// them (the fast-forward extrapolation is near-exact, not exact).
	Functional bool
	// Tolerance is the per-layer max-abs-error bound in functional mode
	// (default 1e-3).
	Tolerance float64
	// SkipBaseline skips the per-layer manual-library comparison run.
	SkipBaseline bool
	// Metrics, when non-nil, receives run instrumentation: per-layer
	// schedule-resolution outcomes (infer_conv_cached_total, ...), conv
	// method selections (infer_method_winograd_total, ...), the arena peak,
	// the machine's lifetime counters (machine_*) and the DMA-hidden ratio.
	// It is threaded into tuning and node execution, and also attached to
	// Options.Library. During a fully cached run every recorded value is a
	// simulated-machine quantity, so snapshots are bit-identical across
	// Workers values.
	Metrics *metrics.Registry
	// Observer, when non-nil, receives the run's structured event log
	// (net.start/finish, per-layer resolution and execution, degradations)
	// and registers the run as a live "infer" job in the observer's
	// JobTracker. It is threaded into tuning, node execution and the
	// library. Purely observational: resolved schedules and every metric
	// are identical with and without an observer attached.
	Observer *obsrv.Observer
	// Spans, when non-nil, collects request-scoped tracing spans for the
	// serving path: one resolve span per operator node (wall time around
	// schedule resolution, with cached/degraded/method args) and one exec
	// span per core group (wall time around execution, with the group's
	// simulated machine milliseconds as an arg). Like Observer it is
	// purely observational — nil-inert, recorded off the simulated clock,
	// and never an input to schedule selection, so machine seconds are
	// bit-identical with and without it.
	Spans *reqtrace.Spans

	// Groups scales the run out across a fleet of simulated core groups
	// (1..sw26010.NumCG — one SW26010 node) by data parallelism. 0 or 1
	// keeps today's single-machine path exactly. Fleet runs need Builder
	// set and force SkipBaseline; schedules still resolve sequentially up
	// front, only execution parallelizes, and per-group machine seconds stay
	// bit-identical across worker counts and goroutine interleavings.
	Groups int
	// Builder rebuilds the network at a different batch size (the facade
	// passes a graph.ByName closure). Fleet runs need it to build the
	// shard-sized graphs each group executes.
	Builder func(batch int) (*graph.Graph, error)

	// serialFleet forces fleet groups to execute sequentially instead of on
	// goroutines — the determinism reference the race stress test compares
	// concurrent runs against.
	serialFleet bool

	// job is the live job Run registers; internal so resolveAll can update
	// progress without re-deriving state.
	job *obsrv.Job
}

// Layer is one executed node of the network.
type Layer struct {
	Name string
	Kind graph.Kind
	// Start is the node's start time on the network timeline; Seconds its
	// simulated execution time on the shared machine.
	Start   float64
	Seconds float64
	// BaselineSeconds is the manual-library time for the same node (stubs
	// cost the same in both runtimes; operators without a usable baseline
	// report their tuned time).
	BaselineSeconds float64
	FLOPs           int64
	// Cached/Degraded/Strategy/SpaceSize describe how the schedule was
	// resolved (operator nodes only).
	Cached    bool
	Degraded  bool
	Strategy  string
	SpaceSize int
	// Checked/MaxAbsErr report the functional-mode oracle comparison.
	Checked   bool
	MaxAbsErr float64
	// Trace is the node's timeline rebased to start at zero.
	Trace *trace.Log
}

// GFLOPS is the layer's simulated throughput (0 for the glue stubs).
func (l Layer) GFLOPS() float64 {
	if l.Seconds <= 0 || l.FLOPs == 0 {
		return 0
	}
	return float64(l.FLOPs) / l.Seconds / 1e9
}

// Execution modes a Result can report.
const (
	ModeSingle       = "single"
	ModeDataParallel = "data-parallel"
)

// GroupResult is one core group's share of a fleet run.
type GroupResult struct {
	// Group is the core-group index (metrics for it carry the
	// cluster.GroupPrefix namespace).
	Group int
	// Batch is the group's shard of the batch (0 for an idle group).
	Batch int
	// Seconds is the group's own machine time, its final Elapsed().
	Seconds  float64
	Counters sw26010.Counters
}

// Result is a completed network run.
type Result struct {
	Net    string
	Batch  int
	Layers []Layer
	// Seconds is the total machine time of the network. On a single
	// machine every node executes serially, so this is its final
	// Elapsed(); on a fleet it is the aggregate timeline — per phase the
	// slowest group plus the phase's collective.
	Seconds float64
	// BaselineSeconds sums the per-layer manual-library times; Speedup is
	// their ratio (0 when the baseline was skipped).
	BaselineSeconds float64
	Speedup         float64
	FLOPs           int64
	// Timeline is the merged network timeline (per-layer logs shifted to
	// their start times).
	Timeline *trace.Log
	Counters sw26010.Counters
	Plan     Plan
	// Output holds the network output tensor after a functional run. A
	// data-parallel fleet run merges the groups' shard outputs back along
	// the batch dimension.
	Output *tensor.Tensor
	// CachedOps / DegradedOps / TunedOps count schedule resolutions by
	// kind across the operator nodes (summed over groups in a fleet run).
	TunedOps, CachedOps, DegradedOps int
	// Mode reports how the run executed: ModeSingle or ModeDataParallel.
	Mode string
	// CommSeconds is the modeled cross-group communication time of a fleet
	// run (the summed collectives).
	CommSeconds float64
	// Groups is the per-group breakdown of a fleet run (nil on the single
	// path).
	Groups []GroupResult
}

// GFLOPS is the whole-network simulated throughput.
func (r *Result) GFLOPS() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.FLOPs) / r.Seconds / 1e9
}

// Resolved is one operator's schedule resolution.
type Resolved struct {
	Program  *ir.Program
	Strategy string
	// Method is the winning conv lowering method ("" for gemm and degraded
	// resolutions).
	Method string
	// SpaceSize is the number of valid schedules the tuner considered (the
	// library entry's count on a hit, 0 when degraded).
	SpaceSize int
	// SpacePoints, Measured and Failed describe a fresh tune: the raw
	// schedule-space size, the candidates a searcher measured and the
	// candidates that failed. All zero on library hits and degradations.
	SpacePoints, Measured, Failed int
	Cached, Degraded              bool
	// secs is Program's timed-only seconds on a fresh machine: supplied by
	// the compiled-schedule table on library hits, 0 until measured
	// otherwise.
	secs float64
}

// Seconds is the program's timed-only seconds on a fresh, fault-free
// machine, measured on first use unless the compiled-schedule table
// supplied it. It never comes from the seconds a library entry stores, so a
// cached and a freshly tuned resolution of one schedule report the same
// time.
func (r *Resolved) Seconds() (float64, error) {
	if r.secs == 0 {
		secs, err := exec.RunTimed(r.Program, exec.Options{})
		if err != nil {
			return 0, err
		}
		r.secs = secs
	}
	return r.secs, nil
}

// Run executes a network end to end. Schedules are resolved first (cache
// hits, then tuning), buffers are planned, and every node then executes in
// topological order on one shared machine — so the network's total time is
// a single serialized timeline, deterministic across worker counts and
// across cached vs freshly-tuned runs (the engine re-executes the compiled
// program either way; it never trusts cached seconds).
func (e *Engine) Run(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-3
	}
	if opts.Library != nil && opts.Metrics != nil {
		opts.Library.SetMetrics(opts.Metrics)
	}
	if opts.Library != nil && opts.Observer != nil {
		opts.Library.SetObserver(opts.Observer)
	}
	opts.job = opts.Observer.Jobs().Start("infer", g.Name)
	opts.Observer.Emit(obsrv.LevelInfo, "net.start",
		obsrv.F("net", g.Name), obsrv.F("batch", g.Batch),
		obsrv.F("nodes", len(g.Topo())))
	run := e.runSingle
	if opts.Groups > 1 {
		run = e.runFleet
	}
	res, err := run(ctx, g, opts)
	if err != nil {
		opts.Observer.Emit(obsrv.LevelError, "net.fail",
			obsrv.F("net", g.Name), obsrv.F("error", err))
		opts.job.Finish(obsrv.JobFailed)
		return nil, err
	}
	if opts.Observer.Enabled() {
		opts.Observer.Emit(obsrv.LevelInfo, "net.finish",
			obsrv.F("net", g.Name), obsrv.Ms("seconds_ms", res.Seconds),
			obsrv.F("gflops", res.GFLOPS()), obsrv.F("speedup", res.Speedup),
			obsrv.F("tuned", res.TunedOps), obsrv.F("cached", res.CachedOps),
			obsrv.F("degraded", res.DegradedOps))
	}
	state := obsrv.JobDone
	if res.DegradedOps > 0 {
		state = obsrv.JobDegraded
	}
	opts.job.Finish(state)
	return res, nil
}

// runSingle is Run on one machine: resolve every operator node, plan
// buffers, then execute in topological order on one shared machine.
func (e *Engine) runSingle(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	resolved, err := e.resolveAll(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	opts.job.SetDetail("executing")
	plan := planBuffers(g)
	ts, err := allocTensors(g, resolved, plan, opts.Functional)
	if err != nil {
		return nil, err
	}

	m := sw26010.NewMachine()
	timeline := &trace.Log{}
	res := &Result{Net: g.Name, Batch: g.Batch, FLOPs: g.FLOPs(), Plan: plan, Mode: ModeSingle}
	env := execEnv{
		m:            m,
		reg:          opts.Metrics,
		obs:          opts.Observer,
		group:        -1,
		functional:   opts.Functional,
		tolerance:    opts.Tolerance,
		skipBaseline: opts.SkipBaseline,
	}
	execT0 := time.Now()
	if err := e.execNodes(ctx, g, g.Topo(), resolved, ts, res, timeline, env); err != nil {
		return nil, err
	}

	res.Seconds = m.Elapsed()
	if opts.Spans != nil {
		opts.Spans.AddGroup(reqtrace.PhaseExec, "exec "+g.Name, 0, execT0, time.Since(execT0),
			map[string]string{"machine_ms": reqtrace.MsArg(res.Seconds * 1e3)})
	}
	res.Counters = m.Counters
	res.Timeline = timeline
	if !opts.SkipBaseline && res.Seconds > 0 {
		res.Speedup = res.BaselineSeconds / res.Seconds
	}
	if opts.Metrics != nil {
		res.Counters.Publish(opts.Metrics)
		opts.Metrics.Gauge("infer_arena_peak_bytes").Set(float64(plan.PeakActivationBytes()))
		opts.Metrics.Gauge("infer_machine_seconds").Add(res.Seconds)
		if dma := timeline.BusyTime(trace.KindDMA); dma > 0 {
			opts.Metrics.Gauge("infer_dma_hidden_ratio").
				Set(timeline.Overlap(trace.KindGemm, trace.KindDMA) / dma)
		}
	}
	if opts.Functional {
		res.Output = ts[g.Output]
	}
	return res, nil
}

// execEnv is one machine's execution context. The single path uses the
// root registry and no group tag; fleet groups use a scoped registry
// (cluster.GroupPrefix) and their group index, so concurrent groups touch
// disjoint metric names and the merged snapshot stays deterministic.
type execEnv struct {
	m            *sw26010.Machine
	reg          *metrics.Registry
	obs          *obsrv.Observer
	group        int // >= 0 tags events with the core group; -1 on the single path
	functional   bool
	tolerance    float64
	skipBaseline bool
}

// label is the group tag threaded into exec observer events ("group2");
// empty on the single path.
func (env execEnv) label() string {
	if env.group < 0 {
		return ""
	}
	return fmt.Sprintf("group%d", env.group)
}

// execNodes executes nodes (a topo-order slice of g) on env's machine,
// appending per-layer results and resolution counts into res and merging
// node timelines (machine-clock times) into timeline. It is the shared
// execution core of the single-machine path and every fleet group's part.
func (e *Engine) execNodes(ctx context.Context, g *graph.Graph, nodes []*graph.Node,
	resolved map[string]*Resolved, ts map[string]*tensor.Tensor,
	res *Result, timeline *trace.Log, env execEnv) error {
	m := env.m
	for _, n := range nodes {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := m.Now()
		nodeLog := &trace.Log{}
		layer := Layer{Name: n.Name, Kind: n.Kind, Start: start}

		switch n.Kind {
		case graph.Conv, graph.Gemm:
			r := resolved[n.Name]
			binds, err := opBinds(n, r.Program, ts)
			if err != nil {
				return fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			runRes, err := exec.Run(r.Program, binds, exec.Options{
				Functional: env.functional,
				FastLoops:  !env.functional,
				Trace:      nodeLog,
				Machine:    m,
				Metrics:    env.reg,
				Observer:   env.obs,
				GroupLabel: env.label(),
			})
			if err != nil {
				return fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			// Each generated kernel owns the whole scratch pad for its
			// invocation; release it before the successor plans its tiles.
			m.ResetSPM()
			layer.Seconds = runRes.Seconds
			layer.Strategy = r.Strategy
			layer.Cached = r.Cached
			layer.Degraded = r.Degraded
			layer.SpaceSize = r.SpaceSize
			if n.Kind == graph.Conv {
				layer.FLOPs = n.Conv.FLOPs()
			} else {
				layer.FLOPs = n.Gemm.FLOPs()
			}
			kindName := "gemm"
			if n.Kind == graph.Conv {
				kindName = "conv"
			}
			switch {
			case r.Cached:
				res.CachedOps++
				env.reg.Counter("infer_" + kindName + "_cached_total").Inc()
			case r.Degraded:
				res.DegradedOps++
				env.reg.Counter("infer_" + kindName + "_degraded_total").Inc()
			default:
				res.TunedOps++
				env.reg.Counter("infer_" + kindName + "_tuned_total").Inc()
			}
			if r.Method != "" {
				env.reg.Counter("infer_method_" + r.Method + "_total").Inc()
			}
			if env.functional {
				maxErr, err := verifyNode(n, ts)
				if err != nil {
					return fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
				}
				layer.Checked = true
				layer.MaxAbsErr = maxErr
				if maxErr > env.tolerance {
					return fmt.Errorf("infer %s: node %s: max abs error %g exceeds tolerance %g",
						g.Name, n.Name, maxErr, env.tolerance)
				}
			}
		default:
			secs, err := runStub(m, g, n, ts, env.functional, nodeLog)
			if err != nil {
				return fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			layer.Seconds = secs
		}

		// Stamp span metadata before merging: operator name, layer index
		// and (for operators) the selected strategy travel into the
		// Chrome-trace export.
		nodeLog.Annotate("op", n.Name)
		nodeLog.Annotate("layer", strconv.Itoa(len(res.Layers)))
		if layer.Strategy != "" {
			nodeLog.Annotate("strategy", layer.Strategy)
		}

		// The machine stamps events in its own clock already; merge them
		// straight onto the caller's timeline and keep a per-layer view
		// rebased to zero.
		timeline.Merge(0, nodeLog)
		layerLog := &trace.Log{}
		layerLog.Merge(-start, nodeLog)
		layer.Trace = layerLog

		if !env.skipBaseline {
			layer.BaselineSeconds = e.baselineSeconds(n, layer.Seconds)
			res.BaselineSeconds += layer.BaselineSeconds
		}
		if env.obs.Enabled() {
			fields := []obsrv.Field{obsrv.F("node", n.Name), obsrv.F("kind", string(n.Kind)),
				obsrv.Ms("seconds_ms", layer.Seconds)}
			if env.group >= 0 {
				fields = append(fields, obsrv.F("group", env.group))
			}
			env.obs.Emit(obsrv.LevelDebug, "layer.run", fields...)
		}
		res.Layers = append(res.Layers, layer)
	}
	return nil
}

// resolveAll resolves a schedule for every operator node. Repeated shapes
// (VGG16's conv3_2/conv3_3, …) share one resolution per run even without a
// library attached.
func (e *Engine) resolveAll(ctx context.Context, g *graph.Graph, opts Options) (map[string]*Resolved, error) {
	return e.resolveNodes(ctx, g, g.Topo(), opts)
}

// resolveNodes resolves schedules for the operator nodes in a topo-order
// subset of the graph — the hybrid fleet split resolves a shard graph's
// convolution head without tuning the fully-connected tail it never
// executes at the shard batch.
func (e *Engine) resolveNodes(ctx context.Context, g *graph.Graph, nodes []*graph.Node, opts Options) (map[string]*Resolved, error) {
	total := 0
	for _, n := range nodes {
		if n.Kind == graph.Conv || n.Kind == graph.Gemm {
			total++
		}
	}
	opts.job.SetTotal(total)
	memo := map[string]*Resolved{}
	out := map[string]*Resolved{}
	done := 0
	degraded := 0
	for _, n := range nodes {
		if n.Kind != graph.Conv && n.Kind != graph.Gemm {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var key string
		if n.Kind == graph.Conv {
			key = "conv:" + n.Conv.String()
		} else {
			key = "gemm:" + n.Gemm.String()
		}
		opts.job.SetDetail("resolving " + n.Name)
		resolveT0 := time.Now()
		r, ok := memo[key]
		if !ok {
			var err error
			if n.Kind == graph.Conv {
				r, err = e.resolveConv(ctx, n.Conv, opts)
			} else {
				r, err = e.resolveGemm(ctx, n.Gemm, opts)
			}
			if err != nil {
				return nil, fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			memo[key] = r
		}
		out[n.Name] = r
		if opts.Spans != nil {
			opts.Spans.Add(reqtrace.PhaseResolve, "resolve "+n.Name, resolveT0, time.Since(resolveT0),
				map[string]string{
					"cached":   strconv.FormatBool(r.Cached),
					"degraded": strconv.FormatBool(r.Degraded),
					"memoized": strconv.FormatBool(ok),
					"strategy": r.Strategy,
				})
		}
		done++
		if r.Degraded {
			degraded++
			opts.Observer.Emit(obsrv.LevelWarn, "layer.degraded",
				obsrv.F("node", n.Name), obsrv.F("strategy", r.Strategy))
		} else if opts.Observer.Enabled() {
			opts.Observer.Emit(obsrv.LevelInfo, "layer.resolved",
				obsrv.F("node", n.Name), obsrv.F("cached", r.Cached),
				obsrv.F("method", r.Method), obsrv.F("strategy", r.Strategy))
		}
		opts.job.Progress(done, done-degraded, degraded, 0)
	}
	return out, nil
}

// resolveConv resolves a convolution node the way the paper's tuner does:
// every applicable lowering method of the conv menu is tuned — or fetched
// from the library — independently, each winner is timed on a fresh
// machine (Resolved.Seconds), and the fastest method's program is kept.
// The method sweep is the menu's fixed order with strict improvement, so
// the choice is deterministic and identical between cached and fresh runs.
// A shape no method resolves degrades, when allowed, to the baseline of
// its first applicable method.
func (e *Engine) resolveConv(ctx context.Context, s conv.Shape, opts Options) (*Resolved, error) {
	var best *Resolved
	var bestSecs float64
	var firstErr error
	preferred := ""
	for _, m := range conv.Menu {
		if !m.Applies(s) {
			continue
		}
		if preferred == "" {
			preferred = m.Name
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var r *Resolved
		var secs float64
		op, err := m.NewOp(s)
		if err == nil {
			r, err = e.resolveOp(ctx, op, opts)
		}
		if err == nil {
			secs, err = r.Seconds()
		}
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.Strategy = m.Name + " " + r.Strategy
		r.Method = m.Name
		if best == nil || secs < bestSecs {
			best, bestSecs = r, secs
		}
	}
	if best != nil {
		return best, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no applicable conv method for %s", s.String())
	}
	if opts.Fallback {
		return degrade(firstErr, func() (*ir.Program, error) { return baseline.FallbackConv(preferred, s) })
	}
	return nil, firstErr
}

// resolveGemm resolves a fully-connected node through the tiled-GEMM
// operator, degrading to the xMath-style baseline when allowed.
func (e *Engine) resolveGemm(ctx context.Context, p gemm.Params, opts Options) (*Resolved, error) {
	op, err := gemm.NewOp(p)
	if err != nil {
		return nil, err
	}
	return e.Resolve(ctx, op, func() (*ir.Program, error) { return baseline.FallbackGemm(p) }, opts)
}

// Resolve resolves one operator's schedule through the engine's resolver —
// the path Run takes for every operator node and the swatop facade's
// Tuner takes for single operators (see resolveOp). When tuning fails for
// any reason but explicit cancellation and opts.Fallback is set, it
// degrades to fallback's manual program, which is never cached.
func (e *Engine) Resolve(ctx context.Context, op autotune.Operator,
	fallback func() (*ir.Program, error), opts Options) (*Resolved, error) {
	r, err := e.resolveOp(ctx, op, opts)
	if err != nil && opts.Fallback && !errors.Is(err, context.Canceled) {
		return degrade(err, fallback)
	}
	return r, err
}

// degrade builds the never-cached baseline-fallback resolution for a node
// whose tuning failed.
func degrade(tuneErr error, fallback func() (*ir.Program, error)) (*Resolved, error) {
	prog, ferr := fallback()
	if ferr != nil {
		return nil, fmt.Errorf("tuning failed (%v); baseline fallback also failed: %w", tuneErr, ferr)
	}
	return &Resolved{
		Program:  prog,
		Strategy: fmt.Sprintf("baseline fallback (tuning failed: %v)", tuneErr),
		Degraded: true,
	}, nil
}

// errNoTune marks a library miss while tuning is disabled (Options.NoTune):
// the caller either degrades to the baseline or surfaces the miss.
var errNoTune = errors.New("tuning disabled (schedule not in library)")

// resolveOp is the cache-then-tune flow for one operator: a library hit
// takes the cached strategy's program from the compiled-schedule table,
// compiling and timing it on the table's first sight of that signature and
// strategy (stale entries that no longer compile are dropped and retuned);
// a miss runs the model-based search and records the result. Only library
// hits enter the table — fresh tunes and degraded fallbacks never do — so
// the library alone decides every pick.
func (e *Engine) resolveOp(ctx context.Context, op autotune.Operator, opts Options) (*Resolved, error) {
	if opts.Library != nil {
		if ent, ok := opts.Library.Get(op.Name()); ok {
			st := ent.Strategy()
			r := &Resolved{Strategy: st.String(), SpaceSize: ent.SpaceSize, Cached: true}
			key := compiledKey(op.Name(), r.Strategy)
			if c, ok := e.compiled.get(key); ok {
				r.Program, r.secs = c.prog, c.secs
				return r, nil
			}
			prog, err := op.Compile(st)
			if err == nil {
				r.Program = prog
				if secs, err := exec.RunTimed(prog, exec.Options{}); err == nil {
					r.secs = secs
					e.compiled.put(key, compiledSchedule{prog: prog, secs: secs})
				}
				return r, nil
			}
			opts.Library.Delete(op.Name())
		}
	}
	if opts.NoTune {
		return nil, fmt.Errorf("%s: %w", op.Name(), errNoTune)
	}
	res, err := autotune.ModelBasedCtx(ctx, op, e.model, autotune.Options{
		Workers:              opts.Workers,
		Faults:               opts.Faults,
		Retry:                opts.Retry,
		MaxCandidateFailures: opts.MaxCandidateFailures,
		Metrics:              opts.Metrics,
		Observer:             opts.Observer,
		Searcher:             opts.Searcher,
		SearchBudget:         opts.SearchBudget,
		SearchSeed:           opts.SearchSeed,
		Transfer:             opts.Library,
	})
	if err != nil {
		return nil, err
	}
	if opts.Library != nil {
		opts.Library.Put(cache.FromStrategy(op.Name(), res.Best.Strategy, res.Best.Measured, res.Valid))
	}
	return &Resolved{
		Program:     res.Best.Program,
		Strategy:    res.Best.Strategy.String(),
		SpaceSize:   res.Valid,
		SpacePoints: res.SpaceSize,
		Measured:    res.Measured,
		Failed:      res.FailedCandidates,
	}, nil
}

// graphTensorFor maps a program's operand declaration to the graph tensor
// it binds. The repo's three operator families agree on their declaration
// names: data input "in"/"B", weight "weight"/"weight2d"/"A", output
// "out"/"out2d"/"C".
func graphTensorFor(n *graph.Node, decl string) (string, error) {
	switch decl {
	case "in", "B":
		return n.In[0], nil
	case "weight", "weight2d", "A":
		return n.In[1], nil
	case "out", "out2d", "C":
		return n.Out, nil
	}
	return "", fmt.Errorf("program declares unknown operand %q", decl)
}

// opBinds builds the exec.Run binding map for one operator node from the
// engine's tensor table.
func opBinds(n *graph.Node, prog *ir.Program, ts map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	binds := map[string]*tensor.Tensor{}
	for _, decl := range prog.Tensors {
		if decl.Scratch {
			continue
		}
		gname, err := graphTensorFor(n, decl.Name)
		if err != nil {
			return nil, err
		}
		t, ok := ts[gname]
		if !ok {
			return nil, fmt.Errorf("tensor %q not allocated", gname)
		}
		binds[decl.Name] = t
	}
	return binds, nil
}

// allocTensors materializes the engine's tensor table. Each graph tensor
// adjacent to an operator node takes the concrete dims and layout that
// operator's program declares (the explicit conv's 2-D out2d stands in for
// the logical 4-D feature map — a flat-order-preserving reshape), all
// others stay identity. In functional mode, arena-assigned activations
// share the two ping-pong buffers; everything else gets dedicated storage.
// Timed-only runs allocate no data at all.
func allocTensors(g *graph.Graph, resolved map[string]*Resolved, plan Plan, functional bool) (map[string]*tensor.Tensor, error) {
	type spec struct {
		dims   []int
		layout []int
	}
	specs := map[string]spec{}
	for _, t := range g.Tensors() {
		specs[t.Name] = spec{dims: t.Dims}
	}
	for _, n := range g.Topo() {
		r := resolved[n.Name]
		if r == nil {
			continue
		}
		for _, decl := range r.Program.Tensors {
			if decl.Scratch {
				continue
			}
			gname, err := graphTensorFor(n, decl.Name)
			if err != nil {
				return nil, fmt.Errorf("node %s: %w", n.Name, err)
			}
			gt, _ := g.Tensor(gname)
			if elemCount(decl.Dims) != elemCount(gt.Dims) {
				return nil, fmt.Errorf("node %s: operand %s has %v elements, graph tensor %s has %v",
					n.Name, decl.Name, decl.Dims, gname, gt.Dims)
			}
			specs[gname] = spec{dims: decl.Dims, layout: decl.Layout}
		}
	}

	var arenas [2][]float32
	if functional {
		arenas[0] = make([]float32, plan.ArenaElems[0])
		arenas[1] = make([]float32, plan.ArenaElems[1])
	}
	ts := map[string]*tensor.Tensor{}
	for _, gt := range g.Tensors() {
		sp := specs[gt.Name]
		layout := sp.layout
		if layout == nil {
			layout = make([]int, len(sp.dims))
			for i := range layout {
				layout[i] = i
			}
		}
		slot, inArena := plan.Slot[gt.Name]
		var t *tensor.Tensor
		var err error
		switch {
		case !functional:
			t, err = tensor.NewVirtual(gt.Name, sp.dims, layout)
		case inArena && slot >= 0:
			t, err = tensor.NewVirtual(gt.Name, sp.dims, layout)
			if err == nil {
				t.Data = arenas[slot][:t.Len()]
			}
		default:
			t, err = tensor.NewWithLayout(gt.Name, sp.dims, layout)
		}
		if err != nil {
			return nil, fmt.Errorf("tensor %s: %w", gt.Name, err)
		}
		ts[gt.Name] = t
	}

	if functional {
		fillInputs(g, ts)
	}
	return ts, nil
}

// fillInputs seeds the graph input with activations in [0,1) and every
// parameter with a deterministic pattern scaled by its fan-in, so
// activation magnitudes stay bounded through arbitrarily deep networks and
// per-layer oracle comparisons keep meaningful absolute tolerances.
func fillInputs(g *graph.Graph, ts map[string]*tensor.Tensor) {
	fillPattern(ts[g.Input], 0)
	for _, n := range g.Topo() {
		switch n.Kind {
		case graph.Conv:
			fillPattern(ts[n.In[1]], n.Conv.Ni*n.Conv.Kr*n.Conv.Kc)
		case graph.Gemm:
			fillPattern(ts[n.In[1]], n.Gemm.K)
		}
	}
}

// fillPattern seeds one tensor: the graph input (fanIn 0) with activations
// in [0,1), a parameter with the pattern scaled by 1/(4·fanIn).
func fillPattern(t *tensor.Tensor, fanIn int) {
	t.FillPattern()
	if fanIn == 0 {
		for i := range t.Data {
			t.Data[i] = (t.Data[i] + 4) / 8
		}
		return
	}
	scale := 1 / (4 * float32(fanIn))
	for i := range t.Data {
		t.Data[i] *= scale
	}
}

// verifyNode compares an operator node's output against the reference
// oracle, reading concrete tensors through the logical flat order so
// operator-chosen layouts and reshapes fall away.
func verifyNode(n *graph.Node, ts map[string]*tensor.Tensor) (float64, error) {
	switch n.Kind {
	case graph.Conv:
		s := n.Conv
		in := ts[n.In[0]] // always the rank-4 pre-padded feature map
		w4 := tensor.New("wref", s.No, s.Ni, s.Kr, s.Kc)
		copyFlat(w4, ts[n.In[1]])
		want, err := tensor.ReferenceConv(in, w4, s)
		if err != nil {
			return 0, err
		}
		return maxAbsErrFlat(want, ts[n.Out])
	case graph.Gemm:
		want, err := tensor.ReferenceGemm(ts[n.In[1]], ts[n.In[0]], 1, 0)
		if err != nil {
			return 0, err
		}
		return maxAbsErrFlat(want, ts[n.Out])
	}
	return 0, nil
}

func copyFlat(dst, src *tensor.Tensor) {
	n := dst.Len()
	for f := 0; f < n; f++ {
		setFlat(dst, atFlat(src, f), f)
	}
}

func maxAbsErrFlat(want, got *tensor.Tensor) (float64, error) {
	if want.Len() != got.Len() {
		return 0, fmt.Errorf("oracle has %d elements, result %d", want.Len(), got.Len())
	}
	var maxErr float64
	for f := 0; f < want.Len(); f++ {
		d := float64(atFlat(want, f)) - float64(atFlat(got, f))
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
	}
	return maxErr, nil
}

// baselineSeconds measures the manual-library implementation of a node on
// a fresh machine (swDNN implicit where its batch restriction allows,
// manual explicit-GEMM otherwise; xMath for the fully-connected layers),
// memoized per shape for the engine's lifetime and looked up before any
// program is built. Glue stubs cost the same in both runtimes; an operator
// with no usable baseline conservatively reports the tuned time.
func (e *Engine) baselineSeconds(n *graph.Node, tuned float64) float64 {
	var key string
	switch n.Kind {
	case graph.Conv:
		key = "conv:" + n.Conv.String()
	case graph.Gemm:
		key = "gemm:" + n.Gemm.String()
	default:
		return tuned
	}
	b, ok := e.baselines.get(key)
	if !ok {
		b = measureBaseline(n)
		e.baselines.put(key, b)
	}
	if !b.ok {
		return tuned
	}
	return b.secs
}

// measureBaseline times the first manual-library program that builds and
// runs for an operator node.
func measureBaseline(n *graph.Node) baselineTime {
	var progs []func() (*ir.Program, error)
	if n.Kind == graph.Conv {
		s := n.Conv
		progs = []func() (*ir.Program, error){
			func() (*ir.Program, error) { return baseline.SwDNNImplicit(s) },
			func() (*ir.Program, error) { return baseline.ManualExplicit(s) },
		}
	} else {
		p := n.Gemm
		progs = []func() (*ir.Program, error){
			func() (*ir.Program, error) { return baseline.XMathGemm(p) },
		}
	}
	for _, mk := range progs {
		prog, err := mk()
		if err != nil {
			continue
		}
		if s, err := exec.RunTimed(prog, exec.Options{}); err == nil {
			return baselineTime{secs: s, ok: true}
		}
	}
	return baselineTime{}
}
