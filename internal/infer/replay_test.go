package infer

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"swatop/internal/cache"
	"swatop/internal/faults"
	"swatop/internal/gemm"
	"swatop/internal/graph"
)

// tableLen reports how many compiled schedules the engine holds.
func tableLen(e *Engine) int {
	e.compiled.mu.Lock()
	defer e.compiled.mu.Unlock()
	return len(e.compiled.m)
}

// sameMachineTime fails unless two runs report bit-identical machine
// seconds — network, per layer, per group — and the same schedules.
func sameMachineTime(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Seconds != want.Seconds || got.BaselineSeconds != want.BaselineSeconds ||
		got.CommSeconds != want.CommSeconds || got.Counters != want.Counters {
		t.Fatalf("%s: seconds %v/%v/%v, want %v/%v/%v (or counters differ)", what,
			got.Seconds, got.BaselineSeconds, got.CommSeconds,
			want.Seconds, want.BaselineSeconds, want.CommSeconds)
	}
	if len(got.Layers) != len(want.Layers) || len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d layers / %d groups, want %d / %d", what,
			len(got.Layers), len(got.Groups), len(want.Layers), len(want.Groups))
	}
	for i, l := range want.Layers {
		if g := got.Layers[i]; g.Seconds != l.Seconds || g.Strategy != l.Strategy {
			t.Fatalf("%s: layer %s %v %q, want %v %q", what, l.Name, g.Seconds, g.Strategy, l.Seconds, l.Strategy)
		}
	}
	for i, gr := range want.Groups {
		if got.Groups[i].Seconds != gr.Seconds || got.Groups[i].Counters != gr.Counters {
			t.Fatalf("%s: group %d seconds %v, want %v", what, i, got.Groups[i].Seconds, gr.Seconds)
		}
	}
}

// TestCompiledTableBitIdentical: a fresh tune, the first library hit (which
// fills the compiled-schedule table) and a table hit report bit-identical
// machine seconds on the single and the 4-group path, and only library hits
// fill the table.
func TestCompiledTableBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, groups := range []int{1, 4} {
		e := newEngine(t)
		opts := Options{Workers: 2, Library: cache.NewLibrary(), Groups: groups, Builder: tinyBuilder}
		run := func() *Result {
			t.Helper()
			res, err := e.Run(ctx, tinyChain(t, 8), opts)
			if err != nil {
				t.Fatalf("groups=%d: %v", groups, err)
			}
			return res
		}
		fresh := run()
		if fresh.TunedOps == 0 || fresh.CachedOps != 0 {
			t.Fatalf("groups=%d: cold run tuned %d / cached %d", groups, fresh.TunedOps, fresh.CachedOps)
		}
		if n := tableLen(e); n != 0 {
			t.Fatalf("groups=%d: a cold run without library hits filled %d table entries", groups, n)
		}
		hit := run()
		filled := tableLen(e)
		if filled == 0 || hit.TunedOps != 0 {
			t.Fatalf("groups=%d: first hit filled %d entries and tuned %d ops", groups, filled, hit.TunedOps)
		}
		replay := run()
		if tableLen(e) != filled || replay.TunedOps != 0 {
			t.Fatalf("groups=%d: table hit grew the table to %d (from %d)", groups, tableLen(e), filled)
		}
		sameMachineTime(t, "first library hit", hit, fresh)
		sameMachineTime(t, "table hit", replay, fresh)
	}
}

// TestCompiledTableFollowsLibrary: replacing a library entry with another
// strategy (Delete, then Put) makes the next run use the new program, even
// though the old one is still in the table.
func TestCompiledTableFollowsLibrary(t *testing.T) {
	ctx := context.Background()
	e := newEngine(t)
	lib := cache.NewLibrary()
	g := tinyChain(t, 2)
	opts := Options{Workers: 2, Library: lib, SkipBaseline: true}
	var before *Result
	for i := 0; i < 2; i++ { // cold tune, then fill the table
		res, err := e.Run(ctx, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		before = res
	}

	var fc *graph.Node
	idx := 0
	for i, n := range g.Topo() {
		if n.Kind == graph.Gemm {
			fc, idx = n, i
			break
		}
	}
	op, err := gemm.NewOp(fc.Gemm)
	if err != nil {
		t.Fatal(err)
	}
	old, ok := lib.Get(op.Name())
	if !ok {
		t.Fatalf("%s not in the library", op.Name())
	}
	// Halve the M tile: a valid schedule with a different machine time.
	alt := old
	alt.Factors = map[string]int{}
	for axis, f := range old.Factors {
		alt.Factors[axis] = f
	}
	alt.Factors["m"] /= 2
	if _, err := op.Compile(alt.Strategy()); err != nil {
		t.Fatalf("alternative strategy does not compile: %v", err)
	}
	lib.Delete(op.Name())
	lib.Put(alt)

	res, err := e.Run(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := alt.Strategy().String()
	if got := res.Layers[idx].Strategy; got != want || got == old.Strategy().String() {
		t.Fatalf("layer %s strategy %q, want the replacement %q", fc.Name, got, want)
	}
	if res.Layers[idx].Seconds == before.Layers[idx].Seconds {
		t.Fatalf("layer %s still takes %v s after its schedule changed", fc.Name, res.Layers[idx].Seconds)
	}
	// A fresh engine (empty table) on the same library is the reference.
	ref, err := newEngine(t).Run(ctx, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameMachineTime(t, "after replacement", res, ref)
}

// TestCompiledTableSkipsDegraded: baseline-fallback resolutions never
// enter the table, with or without tuning.
func TestCompiledTableSkipsDegraded(t *testing.T) {
	e := newEngine(t)
	in := faults.New(1)
	in.FailEveryNth(faults.Measure, 1, errors.New("injected measurement failure"))
	for _, noTune := range []bool{false, true} {
		res, err := e.Run(context.Background(), tinyChain(t, 2), Options{
			Library:              cache.NewLibrary(),
			Faults:               in,
			Fallback:             true,
			NoTune:               noTune,
			MaxCandidateFailures: 3,
			SkipBaseline:         true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.DegradedOps != 5 {
			t.Fatalf("noTune=%v: %d degraded operators, want 5", noTune, res.DegradedOps)
		}
		if n := tableLen(e); n != 0 {
			t.Fatalf("noTune=%v: degraded resolutions filled %d table entries", noTune, n)
		}
	}
}

// TestConcurrentRunsShareTable: concurrent single-path and 4-group Runs on
// one Engine share its table and baseline memo (race-clean under -race)
// and reproduce the serial reference bit for bit.
func TestConcurrentRunsShareTable(t *testing.T) {
	ctx := context.Background()
	e := newEngine(t)
	lib := cache.NewLibrary()
	optsFor := func(groups int) Options {
		return Options{Workers: 2, Library: lib, Groups: groups, Builder: tinyBuilder}
	}
	want := map[int]*Result{}
	for _, groups := range []int{1, 4} {
		// Cold-tune on one engine, take the reference on a fresh one, so
		// the concurrent runs below start from an empty table.
		if _, err := newEngine(t).Run(ctx, tinyChain(t, 8), optsFor(groups)); err != nil {
			t.Fatal(err)
		}
		res, err := newEngine(t).Run(ctx, tinyChain(t, 8), optsFor(groups))
		if err != nil {
			t.Fatal(err)
		}
		want[groups] = res
	}

	const workers = 4
	got := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := tinyBuilder(8)
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = e.Run(ctx, g, optsFor(1+3*(i%2)))
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameMachineTime(t, "concurrent run", got[i], want[1+3*(i%2)])
	}
}

// warmVGG16 returns an engine whose library and compiled-schedule table
// hold every VGG16 batch-1 schedule, with the options of a warm replay.
func warmVGG16(tb testing.TB) (*Engine, *graph.Graph, Options) {
	tb.Helper()
	e, err := NewEngine()
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.VGG16(1)
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{Workers: 2, Library: cache.NewLibrary()}
	for i := 0; i < 2; i++ { // cold tune, then fill the table
		if _, err := e.Run(context.Background(), g, opts); err != nil {
			tb.Fatal(err)
		}
	}
	return e, g, opts
}

// TestWarmReplayAllocBudget guards the replay hot path: a warm VGG16
// batch-1 inference allocates at most 25 MB (it allocated 187 MB when
// every run re-timed its conv methods and zeroed timed-only scratch pad).
func TestWarmReplayAllocBudget(t *testing.T) {
	const runs = 5
	const budgetMB = 25
	e, g, opts := warmVGG16(t)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		res, err := e.Run(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.TunedOps != 0 || res.DegradedOps != 0 {
			t.Fatalf("warm replay tuned %d / degraded %d ops", res.TunedOps, res.DegradedOps)
		}
	}
	runtime.ReadMemStats(&m1)
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / (1 << 20)
	t.Logf("warm VGG16 b1 replay: %.1f MB allocated per run", perRun)
	if perRun > budgetMB {
		t.Fatalf("warm replay allocates %.1f MB per run, budget %d MB", perRun, budgetMB)
	}
}

// BenchmarkWarmReplay times one warm VGG16 batch-1 inference (host time
// and allocations; the machine seconds are fixed by the schedules).
func BenchmarkWarmReplay(b *testing.B) {
	e, g, opts := warmVGG16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// warmFleetVGG16 returns an engine whose library and compiled-schedule table
// hold every schedule of a VGG16 batch-8 run on four core groups.
func warmFleetVGG16(tb testing.TB) (*Engine, *graph.Graph, Options) {
	tb.Helper()
	e, err := NewEngine()
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.VGG16(8)
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{Workers: 2, Library: cache.NewLibrary(), Groups: 4, Builder: graph.VGG16}
	for i := 0; i < 2; i++ { // cold tune, then fill the table
		if _, err := e.Run(context.Background(), g, opts); err != nil {
			tb.Fatal(err)
		}
	}
	return e, g, opts
}

// TestWarmFleetAllocBudget guards the serving fleet's hot path: a warm
// VGG16 batch-8 run on four core groups allocates at most 15 MB.
func TestWarmFleetAllocBudget(t *testing.T) {
	const runs = 5
	const budgetMB = 15
	e, g, opts := warmFleetVGG16(t)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		res, err := e.Run(context.Background(), g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.TunedOps != 0 || res.DegradedOps != 0 {
			t.Fatalf("warm fleet run tuned %d / degraded %d ops", res.TunedOps, res.DegradedOps)
		}
	}
	runtime.ReadMemStats(&m1)
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / (1 << 20)
	t.Logf("warm VGG16 b8 4-group run: %.1f MB allocated per run", perRun)
	if perRun > budgetMB {
		t.Fatalf("warm fleet run allocates %.1f MB per run, budget %d MB", perRun, budgetMB)
	}
}

// BenchmarkWarmFleet times one warm VGG16 batch-8 run on four core groups.
func BenchmarkWarmFleet(b *testing.B) {
	e, g, opts := warmFleetVGG16(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
