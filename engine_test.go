package swatop

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"swatop/internal/trace"
)

// TestEngineVGG16EndToEnd is the acceptance test of the network runtime:
// all 13 VGG16 convolutions plus the fully-connected tail execute on one
// simulated machine, and the total machine seconds are identical across
// tuning worker counts and across cached vs freshly-tuned runs.
func TestEngineVGG16EndToEnd(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary()
	e.UseLibrary(lib)
	e.SetWorkers(4)

	rep, err := e.Infer("vgg16", 1)
	if err != nil {
		t.Fatal(err)
	}
	conv, gemmN := 0, 0
	for _, l := range rep.Layers {
		if l.Kind == "conv" {
			conv++
		}
		if l.Kind == "gemm" {
			gemmN++
		}
	}
	if conv != 13 || gemmN != 3 {
		t.Fatalf("%d conv + %d gemm layers, want 13 + 3", conv, gemmN)
	}
	if rep.Seconds <= 0 {
		t.Fatal("non-positive machine seconds")
	}
	if rep.Speedup <= 0 {
		t.Fatalf("speedup %g, want positive", rep.Speedup)
	}
	if rep.PeakActivationBytes >= rep.NaiveActivationBytes {
		t.Fatalf("buffer plan does not reuse: peak %d >= naive %d",
			rep.PeakActivationBytes, rep.NaiveActivationBytes)
	}
	if tl := rep.Timeline(); !strings.Contains(tl, "gemm") || !strings.Contains(tl, "dma") {
		t.Fatalf("timeline missing channels:\n%s", tl)
	}

	// Cached replay with a different worker count: same machine seconds,
	// every operator resolved from the library. A fresh metrics registry
	// observes the replay.
	e.SetWorkers(1)
	reg1 := NewMetricsRegistry()
	e.SetMetrics(reg1)
	cached, err := e.Infer("vgg16", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cached.CachedLayers != 16 || cached.TunedLayers != 0 {
		t.Fatalf("cached run: %d cached / %d tuned, want 16 / 0", cached.CachedLayers, cached.TunedLayers)
	}
	if cached.Seconds != rep.Seconds {
		t.Fatalf("cached run %g s differs from fresh run %g s", cached.Seconds, rep.Seconds)
	}
	checkReplayMetrics(t, cached)

	// The replay metrics are pure simulated-machine quantities, so a second
	// cached replay at another worker count must produce a bit-identical
	// snapshot — the observability layer inherits the engine's determinism
	// guarantee.
	e.SetWorkers(3)
	reg2 := NewMetricsRegistry()
	e.SetMetrics(reg2)
	cached2, err := e.Infer("vgg16", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotJSON(t, cached2.Metrics), snapshotJSON(t, cached.Metrics); got != want {
		t.Fatalf("cached-replay metrics differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=3 ---\n%s", want, got)
	}
	e.SetMetrics(nil)

	// A fresh library at yet another worker count must land on the same
	// total (schedule selection is worker-independent).
	e2, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	e2.SetWorkers(2)
	again, err := e2.Infer("vgg16", 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Seconds != rep.Seconds {
		t.Fatalf("worker count changed the network: %g vs %g", again.Seconds, rep.Seconds)
	}

	// The report is the CLI's JSON document; it must round-trip.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back NetReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Net != "vgg16" || back.Batch != 1 || len(back.Layers) != len(rep.Layers) {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

// checkReplayMetrics verifies the cached replay's snapshot against the
// run's own report and timeline: all 13 convolutions came from the cache,
// real DMA traffic was recorded, and the DMA-hidden ratio agrees with the
// timeline the report carries.
func checkReplayMetrics(t *testing.T, rep *NetReport) {
	t.Helper()
	snap := rep.Metrics
	if got := snap.Counters["infer_conv_cached_total"]; got != 13 {
		t.Fatalf("infer_conv_cached_total = %d, want 13", got)
	}
	if got := snap.Gauges["machine_dma_bytes_touched_total"]; !(got > 0) {
		t.Fatalf("machine_dma_bytes_touched_total = %g, want > 0", got)
	}
	log := rep.TraceLog()
	if log == nil {
		t.Fatal("cached replay has no timeline")
	}
	dma := log.BusyTime(trace.KindDMA)
	if !(dma > 0) {
		t.Fatalf("timeline DMA busy time = %g, want > 0", dma)
	}
	want := log.Overlap(trace.KindGemm, trace.KindDMA) / dma
	got := snap.Gauges["infer_dma_hidden_ratio"]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("infer_dma_hidden_ratio = %.17g, timeline says %.17g", got, want)
	}

	// The Perfetto export of the same timeline must be valid, non-empty
	// Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatalf("chrome trace has no duration events (%d events total)", len(doc.TraceEvents))
	}
}

// snapshotJSON renders a snapshot for byte-level comparison.
func snapshotJSON(t *testing.T, s MetricsSnapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestEngineFleetVGG16 is the scale-out acceptance test: VGG16 batch 8 on
// a core-group fleet. groups=1 reproduces the single-machine seconds
// exactly; data parallelism on 4 groups delivers at least 3x the
// throughput; per-group and aggregate seconds are bit-identical across
// worker counts.
func TestEngineFleetVGG16(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary()
	e.UseLibrary(lib)
	e.SetWorkers(4)

	base, err := e.Infer("vgg16", 8)
	if err != nil {
		t.Fatal(err)
	}
	if base.Mode != "single" || base.InferencesPerSec <= 0 {
		t.Fatalf("base run: mode %q, %g inf/s", base.Mode, base.InferencesPerSec)
	}

	// groups=1 is the single-machine path, bit for bit.
	e.SetGroups(1)
	g1, err := e.Infer("vgg16", 8)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Seconds != base.Seconds || g1.Mode != "single" {
		t.Fatalf("groups=1 drifted from the single machine: %g vs %g (mode %q)",
			g1.Seconds, base.Seconds, g1.Mode)
	}

	// Data parallelism across the chip's 4 core groups.
	e.SetGroups(4)
	g4, err := e.Infer("vgg16", 8)
	if err != nil {
		t.Fatal(err)
	}
	if g4.Mode != "data-parallel" || len(g4.Groups) != 4 || g4.CommSeconds <= 0 {
		t.Fatalf("fleet run: mode %q, %d groups, comm %g", g4.Mode, len(g4.Groups), g4.CommSeconds)
	}
	if g4.InferencesPerSec < 3*g1.InferencesPerSec {
		t.Fatalf("4 groups deliver %.1f inf/s, single machine %.1f — less than 3x",
			g4.InferencesPerSec, g1.InferencesPerSec)
	}
	if g4.TraceLog().Groups() != 4 {
		t.Fatalf("fleet timeline has %d group rows, want 4", g4.TraceLog().Groups())
	}
	if tl := g4.Timeline(); !strings.Contains(tl, "group0") || !strings.Contains(tl, "group3") {
		t.Fatalf("fleet gantt missing group rows:\n%s", tl)
	}

	// Deterministic scale-out: a replay at another worker count must agree
	// bit for bit, per group and in aggregate.
	e.SetWorkers(1)
	g4b, err := e.Infer("vgg16", 8)
	if err != nil {
		t.Fatal(err)
	}
	if g4b.Seconds != g4.Seconds || g4b.CommSeconds != g4.CommSeconds {
		t.Fatalf("fleet seconds drifted across workers: %g/%g vs %g/%g",
			g4b.Seconds, g4b.CommSeconds, g4.Seconds, g4.CommSeconds)
	}
	for i := range g4.Groups {
		if g4b.Groups[i] != g4.Groups[i] {
			t.Fatalf("group %d drifted: %+v vs %+v", i, g4b.Groups[i], g4.Groups[i])
		}
	}
}

func TestEngineUnknownNetAndCancellation(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Infer("alexnet", 1); err == nil {
		t.Fatal("unknown network must error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.InferCtx(ctx, "vgg16", 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
