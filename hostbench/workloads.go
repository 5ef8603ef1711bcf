package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"swatop/internal/cache"
	"swatop/internal/graph"
	"swatop/internal/infer"
	"swatop/internal/metrics"
	"swatop/internal/reqtrace"
	"swatop/internal/serve"
)

// Set-up repetitions per run; setup_s is their median. Constructing an
// engine is sub-millisecond, so the cold-tune workload repeats it more.
const (
	setupReps     = 3
	setupRepsFast = 50
)

// Minimum sample sizes: cold-tune passes, and warm inferences (the p75
// then has at least ten samples beyond it).
const (
	minPasses = 4
	minInfers = 60
)

// callSplit is the span attribution of one engine call (host ms).
type callSplit struct {
	call, resolve, exec float64
}

// splitCall sums an engine call's resolve and exec spans.
func splitCall(callMs float64, spans *reqtrace.Spans) callSplit {
	c := callSplit{call: callMs}
	for _, s := range spans.Snapshot() {
		switch s.Phase {
		case reqtrace.PhaseResolve:
			c.resolve += ms(s.Dur)
		case reqtrace.PhaseExec:
			c.exec += ms(s.Dur)
		}
	}
	return c
}

// recordSplits stores infer.resolve/exec/other_ms as means per call, so the
// three add up to the mean traced call time exactly.
func recordSplits(r *report, calls []callSplit) {
	var sum callSplit
	for _, c := range calls {
		sum.call += c.call
		sum.resolve += c.resolve
		sum.exec += c.exec
	}
	n := float64(max(len(calls), 1))
	r.metrics["infer.resolve_ms"] = sum.resolve / n
	r.metrics["infer.exec_ms"] = sum.exec / n
	r.metrics["infer.other_ms"] = (sum.call - sum.resolve - sum.exec) / n
	r.info("infer.call_ms", sum.call/n, "ms", clockHost,
		fmt.Sprintf("mean traced call = resolve + exec + other, n=%d", len(calls)))
}

// zero sets the named per-layer metrics to 0: the layer does no work in
// this workload's measured region.
func (r *report) zero(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.metrics[d.name] = 0
			}
		}
	}
}

// regionDelta reads the tuning counters and wall gauges of reg before and
// after a measured region.
type regionDelta struct {
	reg   *metrics.Registry
	start map[string]float64
}

// tuningCounters and tuningGauges are what the per-layer report reads.
var (
	tuningCounters = []string{
		"autotune_candidates_total", "autotune_candidates_failed_total",
		"exec_runs_total", "cache_hits_total", "cache_misses_total", "cache_puts_total",
		"infer_conv_degraded_total", "infer_gemm_degraded_total",
	}
	tuningGauges = []string{"autotune_search_wall_seconds", "autotune_finalist_wall_seconds"}
)

func startDelta(reg *metrics.Registry) regionDelta {
	d := regionDelta{reg: reg, start: map[string]float64{}}
	for _, n := range tuningCounters {
		d.start[n] = float64(reg.Counter(n).Value())
	}
	for _, n := range tuningGauges {
		d.start[n] = reg.Gauge(n).Value()
	}
	return d
}

// get is the region's increase of a counter or gauge.
func (d regionDelta) get(name string) float64 {
	for _, n := range tuningGauges {
		if n == name {
			return d.reg.Gauge(n).Value() - d.start[n]
		}
	}
	return float64(d.reg.Counter(name).Value()) - d.start[name]
}

// recordTuning stores the autotune and cache layer metrics of a measured
// region, scaled per pass: candidates ranked, finalists measured (engine
// exec runs minus the opExecs node executions), the ranking and
// measurement wall time from the autotune gauges, and library traffic.
func recordTuning(r *report, d regionDelta, opExecs, passes float64) {
	cands := d.get("autotune_candidates_total")
	rank := d.get("autotune_search_wall_seconds")
	measure := d.get("autotune_finalist_wall_seconds")
	r.metrics["autotune.candidates"] = cands / passes
	r.metrics["autotune.finalists"] = 0
	if cands > 0 {
		r.metrics["autotune.finalists"] = (d.get("exec_runs_total") - opExecs) / passes
	}
	r.metrics["autotune.rank_s"] = rank / passes
	r.metrics["autotune.measure_s"] = measure / passes
	r.metrics["autotune.cand_per_s"] = 0
	if rank+measure > 0 {
		r.metrics["autotune.cand_per_s"] = cands / (rank + measure)
	}
	hits, misses := d.get("cache_hits_total"), d.get("cache_misses_total")
	r.metrics["cache.puts"] = d.get("cache_puts_total") / passes
	r.metrics["cache.misses"] = misses / passes
	r.metrics["cache.hit_ratio"] = 0
	if hits+misses > 0 {
		r.metrics["cache.hit_ratio"] = hits / (hits + misses)
	}
}

// gateTuning fails the run when any tuning candidate failed or any layer
// degraded to the baseline schedule.
func gateTuning(r *report, d regionDelta, what string) {
	if n := d.get("autotune_candidates_failed_total"); n > 0 {
		r.problem("%s: %v tuning candidates failed", what, n)
	}
	if n := d.get("infer_conv_degraded_total") + d.get("infer_gemm_degraded_total"); n > 0 {
		r.problem("%s: %v layers degraded to the baseline", what, n)
	}
}

// checkRun gates one network run: machine seconds bit-identical to the
// reference, no degraded layer, and (warm) every operator from the cache.
func checkRun(r *report, what string, res *infer.Result, want float64, g *graph.Graph, warm bool) bool {
	ok := true
	if err := sameBits(what, res.Seconds, want); err != nil {
		r.problem("%v", err)
		ok = false
	}
	if res.DegradedOps > 0 {
		r.problem("%s: %d degraded layers", what, res.DegradedOps)
		ok = false
	}
	if warm && (res.CachedOps != opNodes(g) || res.TunedOps != 0) {
		r.problem("%s: warm run tuned %d and cached %d of %d operators",
			what, res.TunedOps, res.CachedOps, opNodes(g))
		ok = false
	}
	return ok
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// allocMB is the host memory allocated between two MemStats reads, in MB.
func allocMB(a, b runtime.MemStats) float64 { return float64(b.TotalAlloc-a.TotalAlloc) / 1e6 }

// tuneCold tunes VGG16, ResNet and YOLO at batch 1 on one core group from
// an empty library shared by the three nets, in the seed's order, pass
// after pass. An operation is one such pass.
func tuneCold(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	order := netOrder(cfg.seed, tunedNets)
	rep.info("net_order", 0, "", clockHost, strings.Join(order, " "))

	var eng *infer.Engine
	graphs := map[string]*graph.Graph{}
	var setups []float64
	for i := 0; i < setupRepsFast; i++ {
		t0 := time.Now()
		e, err := infer.NewEngine()
		if err != nil {
			return nil, err
		}
		for _, n := range tunedNets {
			g, err := graph.ByName(n, 1)
			if err != nil {
				return nil, err
			}
			graphs[n] = g
		}
		setups = append(setups, time.Since(t0).Seconds())
		eng = e
	}
	rep.metrics["setup_s"] = median(setups)

	opExecsPerPass := 0
	for _, g := range graphs {
		opExecsPerPass += opNodes(g)
	}
	reg := metrics.NewRegistry()
	delta := startDelta(reg)
	var passMs []float64
	var calls []callSplit
	var mallocs, gcs uint64
	var lib *cache.Library
	last := map[string]*infer.Result{}
	var machineS float64
	runtime.GC()
	m0 := memStats()
	start := time.Now()
	for time.Since(start) < cfg.seconds || len(passMs) < minPasses {
		lib = cache.NewLibrary()
		got := map[string]float64{}
		p0 := time.Now()
		for _, n := range order {
			g := graphs[n]
			opts := infer.Options{Workers: cfg.workers, Library: lib, Metrics: reg}
			var spans *reqtrace.Spans
			var c0 runtime.MemStats
			if cfg.trace {
				spans = &reqtrace.Spans{}
				opts.Spans = spans
				c0 = memStats()
			}
			t0 := time.Now()
			res, err := eng.Run(ctx, g, opts)
			callMs := ms(time.Since(t0))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", n, err)
			}
			if cfg.trace {
				c1 := memStats()
				mallocs += c1.Mallocs - c0.Mallocs
				gcs += uint64(c1.NumGC - c0.NumGC)
				calls = append(calls, splitCall(callMs, spans))
			}
			if checkRun(rep, "tune-cold "+n, res, cfg.ref.Nets[n], g, false) {
				got[n] = res.Seconds
			}
			last[n] = res
		}
		passMs = append(passMs, ms(time.Since(p0)))
		rep.attempted++
		if len(got) < len(tunedNets) {
			rep.failed++
		}
		machineS = 0
		for _, n := range tunedNets {
			machineS += got[n]
		}
		if err := sameBits("tune-cold machine_s", machineS, cfg.ref.tuneCold()); err != nil {
			rep.problem("%v", err)
		}
	}
	m1 := memStats()
	passes := float64(len(passMs))
	gateTuning(rep, delta, "tune-cold")

	rep.metrics["op_ms_p50"] = median(passMs)
	rep.metrics["alloc_mb_per_op"] = allocMB(m0, m1) / passes
	rep.info("tune_s", median(passMs)/1e3, "s", clockHost,
		fmt.Sprintf("median of n=%d passes, each tuning all three nets: %.0f ms", len(passMs), passMs))
	rep.info("machine_s", machineS, "s", clockMachine,
		fmt.Sprintf("%v: sum of the three nets' batch-1 runs, gated bit for bit", machineS))
	rep.errorRate()
	if !cfg.trace {
		return rep, nil
	}

	recordTuning(rep, delta, float64(opExecsPerPass)*passes, passes)
	recordSplits(rep, calls)
	rep.metrics["mem.allocs_per_infer"] = float64(mallocs) / float64(len(calls))
	rep.metrics["mem.gc_per_infer"] = float64(gcs) / float64(len(calls))
	var gs []*graph.Graph
	for _, n := range tunedNets {
		gs = append(gs, graphs[n])
	}
	probe, err := probePrograms(lib, reg, gs...)
	if err != nil {
		return nil, err
	}
	probe.record(rep)
	for _, n := range tunedNets {
		probe.checkChoices(rep, "tune-cold "+n, graphs[n], last[n])
	}
	rep.zero("fleet.", "serve.", "gen.", "trace.")
	return rep, nil
}

// replayWarm fills a library with a cold VGG16 batch-1 tune in set-up, then
// replays warm batch-1 inferences on one core group. An operation is one
// warm inference. The traced run alternates untraced and traced calls so
// the tracing overhead is measured under the same conditions.
func replayWarm(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var eng *infer.Engine
	var lib *cache.Library
	var g *graph.Graph
	var setups []float64
	setupReg := metrics.NewRegistry()
	setupDelta := startDelta(setupReg)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		e, err := infer.NewEngine()
		if err != nil {
			return nil, err
		}
		l := cache.NewLibrary()
		gg, err := graph.VGG16(1)
		if err != nil {
			return nil, err
		}
		res, err := e.Run(ctx, gg, infer.Options{Workers: cfg.workers, Library: l, Metrics: setupReg})
		if err != nil {
			return nil, fmt.Errorf("set-up tune: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		checkRun(rep, "replay-warm set-up", res, cfg.ref.Nets["vgg16"], gg, false)
		eng, lib, g = e, l, gg
	}
	gateTuning(rep, setupDelta, "replay-warm set-up")
	rep.metrics["setup_s"] = median(setups)

	reg := metrics.NewRegistry()
	if cfg.trace {
		lib.SetMetrics(reg)
	} else {
		lib.SetMetrics(nil)
	}
	delta := startDelta(reg)
	var untraced, traced []float64
	var calls []callSplit
	var mallocs, gcs uint64
	var last *infer.Result
	runtime.GC()
	m0 := memStats()
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds || i < minInfers; i++ {
		tr := cfg.trace && i%2 == 1
		opts := infer.Options{Workers: cfg.workers, Library: lib}
		var spans *reqtrace.Spans
		if tr {
			spans = &reqtrace.Spans{}
			opts.Metrics = reg
			opts.Spans = spans
		}
		var c0 runtime.MemStats
		if cfg.trace {
			c0 = memStats()
		}
		t0 := time.Now()
		res, err := eng.Run(ctx, g, opts)
		d := ms(time.Since(t0))
		if err != nil {
			return nil, err
		}
		if cfg.trace {
			c1 := memStats()
			if !tr {
				mallocs += c1.Mallocs - c0.Mallocs
				gcs += uint64(c1.NumGC - c0.NumGC)
			}
		}
		rep.attempted++
		last = res
		if !checkRun(rep, fmt.Sprintf("replay-warm inference %d", i), res, cfg.ref.Nets["vgg16"], g, true) {
			rep.failed++
		}
		if tr {
			traced = append(traced, d)
			calls = append(calls, splitCall(d, spans))
		} else {
			untraced = append(untraced, d)
		}
	}
	m1 := memStats()

	s := summarize(untraced)
	rep.metrics["op_ms_p50"] = s.pct(50)
	rep.metrics["alloc_mb_per_op"] = allocMB(m0, m1) / float64(rep.attempted)
	rep.timing("infer_ms", untraced)
	if !cfg.trace {
		rep.info("alloc_mb_per_infer", rep.metrics["alloc_mb_per_op"], "MB", clockHost, "TotalAlloc delta per warm inference")
	}
	rep.info("machine_s", last.Seconds, "s", clockMachine,
		fmt.Sprintf("%v: vgg16 batch 1, gated bit for bit against vgg16-b1", last.Seconds))
	rep.errorRate()
	if !cfg.trace {
		return rep, nil
	}

	if delta.get("autotune_candidates_total") != 0 {
		rep.problem("replay-warm: %v tuning candidates in the warm loop", delta.get("autotune_candidates_total"))
	}
	recordTuning(rep, delta, 0, float64(len(traced)))
	if rep.metrics["cache.hit_ratio"] != 1 {
		rep.problem("replay-warm: cache hit ratio %v, want 1", rep.metrics["cache.hit_ratio"])
	}
	recordSplits(rep, calls)
	rep.metrics["mem.allocs_per_infer"] = float64(mallocs) / float64(len(untraced))
	rep.metrics["mem.gc_per_infer"] = float64(gcs) / float64(len(untraced))
	probe, err := probePrograms(lib, reg, g)
	if err != nil {
		return nil, err
	}
	probe.record(rep)
	probe.checkChoices(rep, "replay-warm", g, last)
	base, withTrace := s.pct(50), summarize(traced).pct(50)
	rep.metrics["trace.overhead_pct"] = (withTrace - base) / base * 100
	rep.timing("infer_ms.traced", traced)
	rep.zero("fleet.", "serve.", "gen.")
	return rep, nil
}

// Serving workload shape.
var (
	serveBuckets = []int{1, 2, 4, 8}
	serveRates   = []float64{8, 20}
)

const (
	serveGroups     = 4
	serveWindow     = 2 * time.Millisecond
	serveDeadlineMs = 2000
	// minSolo is the fewest one-in-flight requests a run measures.
	minSolo = 20
)

// sample is one served request.
type sample struct {
	lateMs float64 // how late the generator sent it
	latMs  float64 // from its due time to the answer
	resp   *serve.Response
	err    error
}

func submit(ctx context.Context, srv *serve.Server, id int, due time.Time) sample {
	resp, err := srv.Submit(ctx, serve.Request{ID: fmt.Sprint(id), DeadlineMs: serveDeadlineMs})
	return sample{latMs: ms(time.Since(due)), resp: resp, err: err}
}

// drive sends one open-loop phase: request i is submitted at start +
// sched[i] whatever the state of earlier requests, and timed from that due
// time. It returns once every request is answered.
func drive(ctx context.Context, srv *serve.Server, sched []time.Duration) []sample {
	out := make([]sample, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = submit(ctx, srv, i, due)
			out[i].lateMs = late
		}(i, due)
	}
	wg.Wait()
	return out
}

// solo sends requests one at a time, each as soon as the previous one is
// answered, for at least d and minSolo requests: the latency of a request
// with nothing else in flight.
func solo(ctx context.Context, srv *serve.Server, d time.Duration) []sample {
	var out []sample
	for start := time.Now(); time.Since(start) < d || len(out) < minSolo; {
		out = append(out, submit(ctx, srv, len(out), time.Now()))
	}
	return out
}

// phaseStats are one phase's outcome counts and distributions.
type phaseStats struct {
	name                  string
	lat, queue, batchForm []float64
	run                   []float64
	shed, expired, failed int
	n                     int
	lateMax               float64
	batches               map[string]*serve.Response // one member per executed batch
}

// judge gates a phase's responses: every request must be answered (not
// shed, expired or errored), undegraded, served from warm schedules, and
// carry exactly its bucket's warm machine seconds.
func judge(rep *report, name string, samples []sample, warm map[int]float64) phaseStats {
	st := phaseStats{name: name, n: len(samples), batches: map[string]*serve.Response{}}
	for i, s := range samples {
		st.lateMax = math.Max(st.lateMax, s.lateMs)
		if s.err != nil {
			st.failed++
			switch {
			case errors.Is(s.err, serve.ErrShed):
				st.shed++
			case errors.Is(s.err, serve.ErrDeadline):
				st.expired++
			}
			rep.problem("%s request %d failed: %v", name, i, s.err)
			continue
		}
		r := s.resp
		if r.Degraded {
			st.failed++
			rep.problem("%s request %d was served by degraded (baseline) schedules", name, i)
			continue
		}
		if err := sameBits(fmt.Sprintf("%s response (bucket %d) machine_ms", name, r.Bucket),
			r.MachineMs, warm[r.Bucket]*1e3); err != nil {
			rep.problem("%v", err)
		}
		if r.TunedOps != 0 {
			rep.problem("%s response tuned %d operators on a warm server", name, r.TunedOps)
		}
		st.lat = append(st.lat, s.latMs)
		st.queue = append(st.queue, r.QueueMs)
		st.batchForm = append(st.batchForm, r.BatchMs)
		st.run = append(st.run, r.RunMs)
		st.batches[fmt.Sprintf("%x/%d", math.Float64bits(r.RunMs), r.Bucket)] = r
	}
	rep.attempted += st.n
	rep.failed += st.failed
	return st
}

// batchShape is the mean live batch size and the padding share of bucket
// slots over a phase's executed batches.
func (st phaseStats) batchShape() (mean, pad float64) {
	var live, slots int
	for _, r := range st.batches {
		live += r.Batch
		slots += r.Bucket
	}
	if len(st.batches) == 0 || slots == 0 {
		return 0, 0
	}
	return float64(live) / float64(len(st.batches)), float64(slots-live) / float64(slots)
}

// report adds the phase's human-readable lines.
func (st phaseStats) report(rep *report) {
	tag := "." + st.name
	rep.timing("lat_ms"+tag, st.lat)
	mean, pad := st.batchShape()
	rep.info("batch_mean"+tag, mean, "count", clockHost, fmt.Sprintf("%d batches", len(st.batches)))
	rep.info("pad_ratio"+tag, pad, "ratio", clockHost, "padding / bucket slots")
	rep.info("gen.late_ms_max"+tag, st.lateMax, "ms", clockHost, "")
	rep.info("shed"+tag, float64(st.shed), "count", clockHost, "")
	rep.info("expired"+tag, float64(st.expired), "count", clockHost, "")
}

// serveOpen warms a VGG16 server on the full 4-group chip in set-up. It
// then sends requests one at a time — the bounded end-to-end operation is
// one such request — and offers seeded open-loop Poisson arrivals at 8 and
// at 20 req/s, whose latencies are reported per layer: near capacity on a
// small host they swing too far from run to run to carry a bound.
func serveOpen(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var store *reqtrace.Store
	if cfg.trace {
		store = reqtrace.NewStore(reqtrace.StoreOptions{Capacity: 1 << 14, SampleRate: 1})
	}
	var srv *serve.Server
	var warm map[int]float64
	var reg *metrics.Registry
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			if err := srv.Drain(ctx); err != nil {
				return nil, err
			}
		}
		r := metrics.NewRegistry()
		d := startDelta(r)
		t0 := time.Now()
		s, err := serve.New(serve.Config{
			Net:         "vgg16",
			Builder:     func(b int) (*graph.Graph, error) { return graph.VGG16(b) },
			MaxBatch:    serveBuckets[len(serveBuckets)-1],
			BatchWindow: serveWindow,
			Buckets:     serveBuckets,
			Groups:      serveGroups,
			Workers:     cfg.workers,
			Metrics:     r,
			Trace:       store,
		})
		if err != nil {
			return nil, err
		}
		w, err := s.Warmup(ctx)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gateTuning(rep, d, "serve-open warm-up")
		for _, b := range serveBuckets {
			if err := sameBits(fmt.Sprintf("serve-open warm bucket %d", b), w[b],
				cfg.ref.Buckets[fmt.Sprint(b)]); err != nil {
				rep.problem("%v", err)
			}
		}
		srv, warm, reg = s, w, r
	}
	rep.metrics["setup_s"] = median(setups)

	// The one-in-flight phase: the end-to-end operation.
	runtime.GC()
	m0 := memStats()
	one := judge(rep, "solo", solo(ctx, srv, cfg.seconds), warm)
	m1 := memStats()
	rep.metrics["op_ms_p50"] = median(one.lat)
	rep.metrics["alloc_mb_per_op"] = allocMB(m0, m1) / float64(one.n)
	one.report(rep)

	// The open-loop phases. The timed run sends a one-second burst at each
	// rate, which gates concurrent batches; the traced run offers 0.3 of the
	// run's seconds at 8 req/s, then at least minOps requests at 20 req/s.
	var phases []phaseStats
	var delta regionDelta
	for i, rate := range serveRates {
		last := i == len(serveRates)-1
		n := int(math.Round(rate))
		if cfg.trace {
			n = max(1, int(math.Round(rate*cfg.seconds.Seconds()*0.3)))
			if last {
				n = max(n, minOps)
				delta = startDelta(reg)
				m0 = memStats()
			}
		}
		samples := drive(ctx, srv, arrivals(cfg.seed, uint64(rate), rate, n))
		if last {
			m1 = memStats()
		}
		st := judge(rep, fmt.Sprintf("r%g", rate), samples, warm)
		st.report(rep)
		phases = append(phases, st)
	}
	if err := srv.Drain(ctx); err != nil {
		return nil, err
	}
	rep.info("max_rps", 0, "1/s", clockHost, "not measured: needs a rate sweep per run, see README")
	rep.info("machine_s", warm[8], "s", clockMachine,
		fmt.Sprintf("%v: bucket 8 on 4 groups, gated bit for bit against vgg16-b8-g4", warm[8]))
	rep.errorRate()
	if !cfg.trace {
		return rep, nil
	}

	// Per-layer attribution of the near-capacity phase.
	high := phases[len(phases)-1]
	if delta.get("autotune_candidates_total") != 0 {
		rep.problem("serve-open: %v tuning candidates while serving", delta.get("autotune_candidates_total"))
	}
	recordTuning(rep, delta, 0, float64(len(high.batches)))
	if rep.metrics["cache.hit_ratio"] != 1 {
		rep.problem("serve-open: cache hit ratio %v, want 1", rep.metrics["cache.hit_ratio"])
	}
	mean, pad := high.batchShape()
	rep.metrics["serve.batch_mean"] = mean
	rep.metrics["serve.pad_ratio"] = pad
	q, b, run := summarize(high.queue), summarize(high.batchForm), summarize(high.run)
	rep.metrics["serve.queue_ms_p50"] = q.pct(50)
	rep.metrics["serve.queue_ms_p90"] = q.pct(90)
	rep.metrics["serve.batch_ms_p50"] = b.pct(50)
	rep.metrics["serve.run_ms_p50"] = run.pct(50)
	rep.metrics["serve.run_ms_p90"] = run.pct(90)
	rep.metrics["serve.lat_ms_p50.r8"] = median(phases[0].lat)
	rep.metrics["serve.lat_ms_p50.r20"] = median(high.lat)
	rep.metrics["serve.lat_ms_p90.r20"] = summarize(high.lat).pct(90)
	rep.metrics["serve.shed"] = float64(high.shed)
	rep.metrics["serve.expired"] = float64(high.expired)
	rep.metrics["gen.late_ms_max"] = high.lateMax
	rep.metrics["mem.allocs_per_infer"] = float64(m1.Mallocs-m0.Mallocs) / float64(high.n)
	rep.metrics["mem.gc_per_infer"] = float64(m1.NumGC-m0.NumGC) / float64(high.n)
	if err := recordFleet(rep, store, high); err != nil {
		return nil, err
	}
	g2, err := graph.VGG16(2)
	if err != nil {
		return nil, err
	}
	probe, err := probePrograms(srv.Library(), reg, g2)
	if err != nil {
		return nil, err
	}
	probe.record(rep)
	// The engine's own choice for that shard: a bucket-8 fleet run on the
	// server's library, outside the server.
	g8, err := graph.VGG16(serveBuckets[len(serveBuckets)-1])
	if err != nil {
		return nil, err
	}
	eng, err := infer.NewEngine()
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(ctx, g8, infer.Options{
		Workers:      cfg.workers,
		Library:      srv.Library(),
		NoTune:       true,
		SkipBaseline: true,
		Groups:       serveGroups,
		Builder:      func(b int) (*graph.Graph, error) { return graph.VGG16(b) },
	})
	if err != nil {
		return nil, err
	}
	checkRun(rep, "serve-open bucket-8 fleet run", res, warm[8], g8, false)
	probe.checkChoices(rep, "serve-open bucket-8 shard", g2, res)
	rep.metrics["trace.overhead_pct"] = 0
	return rep, nil
}

// recordFleet attributes each executed batch of a phase from one member's
// trace: resolve spans, the per-group exec spans (critical path = the
// slowest group of each exec step, skew = slowest ÷ mean group) and the
// simulated comm time.
func recordFleet(rep *report, store *reqtrace.Store, st phaseStats) error {
	var calls []callSplit
	var execMax, skew, comm []float64
	for _, key := range sortedKeys(st.batches) {
		r := st.batches[key]
		tr := store.Get(r.TraceID)
		if tr == nil {
			return fmt.Errorf("trace %s of a served batch was not retained", r.TraceID)
		}
		steps := map[string][]float64{}
		c := callSplit{call: r.RunMs}
		commMs := 0.0
		for _, sp := range tr.Spans {
			switch sp.Phase {
			case reqtrace.PhaseResolve:
				c.resolve += sp.DurMs
			case reqtrace.PhaseExec:
				steps[sp.Name] = append(steps[sp.Name], sp.DurMs)
			case reqtrace.PhaseComm:
				if v, err := strconv.ParseFloat(sp.Args["machine_comm_ms"], 64); err == nil {
					commMs = v
				}
			}
		}
		var sumMax, sumMean float64
		for _, durs := range steps {
			s := summarize(durs)
			sumMax += s.sorted[s.n()-1]
			sumMean += s.mean()
		}
		c.exec = sumMax
		calls = append(calls, c)
		execMax = append(execMax, sumMax)
		if sumMean > 0 {
			skew = append(skew, sumMax/sumMean)
		}
		comm = append(comm, commMs)
	}
	recordSplits(rep, calls)
	rep.metrics["fleet.group_exec_ms_max"] = median(execMax)
	rep.metrics["fleet.group_skew"] = median(skew)
	rep.metrics["fleet.comm_ms"] = median(comm)
	return nil
}
