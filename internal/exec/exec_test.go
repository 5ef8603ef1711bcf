package exec

import (
	"math"
	"testing"

	"swatop/internal/ir"
	"swatop/internal/metrics"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// manualProgram builds a tiny hand-written IR program: load two 4×4 tiles,
// multiply, store — exercising the interpreter without the lowering.
func manualProgram() *ir.Program {
	return &ir.Program{
		Name: "manual",
		Tensors: []ir.TensorDecl{
			{Name: "A", Dims: []int{4, 4}},
			{Name: "B", Dims: []int{4, 4}},
			{Name: "C", Dims: []int{4, 4}, Output: true},
		},
		Body: []ir.Stmt{
			&ir.AllocSPM{Buf: "a", Elems: ir.Const(16)},
			&ir.AllocSPM{Buf: "b", Elems: ir.Const(16)},
			&ir.AllocSPM{Buf: "c", Elems: ir.Const(16)},
			// Column-major staging: A^T view via FrameStride.
			&ir.RegionMove{Tensor: "A", Dir: ir.Get,
				Start:  []ir.Expr{ir.Const(0), ir.Const(0)},
				Extent: []ir.Expr{ir.Const(4), ir.Const(4)},
				Buf:    "a", BufOff: ir.Const(0),
				FrameStride: []ir.Expr{ir.Const(1), ir.Const(4)}},
			&ir.RegionMove{Tensor: "B", Dir: ir.Get,
				Start:  []ir.Expr{ir.Const(0), ir.Const(0)},
				Extent: []ir.Expr{ir.Const(4), ir.Const(4)},
				Buf:    "b", BufOff: ir.Const(0),
				FrameStride: []ir.Expr{ir.Const(1), ir.Const(4)}},
			&ir.Transform{Kind: ir.ZeroFill, Dst: "c", DstOff: ir.Const(0), SrcOff: ir.Const(0),
				Args: []ir.Expr{ir.Const(16)}},
			&ir.Gemm{A: "a", B: "b", C: "c",
				AOff: ir.Const(0), BOff: ir.Const(0), COff: ir.Const(0),
				M: ir.Const(4), N: ir.Const(4), K: ir.Const(4),
				LDA: ir.Const(4), LDB: ir.Const(4), LDC: ir.Const(4),
				Accumulate: true},
			&ir.RegionMove{Tensor: "C", Dir: ir.Put,
				Start:  []ir.Expr{ir.Const(0), ir.Const(0)},
				Extent: []ir.Expr{ir.Const(4), ir.Const(4)},
				Buf:    "c", BufOff: ir.Const(0),
				FrameStride: []ir.Expr{ir.Const(1), ir.Const(4)}},
			&ir.FreeSPM{Buf: "a"},
			&ir.FreeSPM{Buf: "b"},
			&ir.FreeSPM{Buf: "c"},
		},
	}
}

func bind3() map[string]*tensor.Tensor {
	a := tensor.New("A", 4, 4)
	b := tensor.New("B", 4, 4)
	c := tensor.New("C", 4, 4)
	a.FillPattern()
	b.FillPattern()
	return map[string]*tensor.Tensor{"A": a, "B": b, "C": c}
}

func TestRunManualProgram(t *testing.T) {
	binds := bind3()
	res, err := Run(manualProgram(), binds, Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Counters.GemmCalls != 1 || res.Counters.DMAOps != 3 {
		t.Fatalf("counters wrong: %+v", res.Counters)
	}
	want, _ := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
	if d, _ := tensor.MaxAbsDiff(want, binds["C"]); d > 1e-4 {
		t.Fatalf("manual program wrong by %g", d)
	}
}

func TestRunMissingBinding(t *testing.T) {
	binds := bind3()
	delete(binds, "B")
	if _, err := Run(manualProgram(), binds, Options{}); err == nil {
		t.Fatal("missing tensor binding must fail")
	}
}

func TestRunDimsMismatch(t *testing.T) {
	binds := bind3()
	binds["A"] = tensor.New("A", 4, 5)
	if _, err := Run(manualProgram(), binds, Options{}); err == nil {
		t.Fatal("dims mismatch must fail")
	}
	binds["A"] = tensor.New("A", 4)
	if _, err := Run(manualProgram(), binds, Options{}); err == nil {
		t.Fatal("rank mismatch must fail")
	}
}

func TestRunLayoutMismatch(t *testing.T) {
	p := manualProgram()
	p.Tensors[0].Layout = []int{1, 0} // require column-major A
	binds := bind3()                  // but bind row-major
	if _, err := Run(p, binds, Options{}); err == nil {
		t.Fatal("layout mismatch must fail")
	}
	cm, _ := tensor.NewWithLayout("A", []int{4, 4}, []int{1, 0})
	cm.FillPattern()
	binds["A"] = cm
	if _, err := Run(p, binds, Options{Functional: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOutputZeroed(t *testing.T) {
	binds := bind3()
	binds["C"].Fill(99)
	if _, err := Run(manualProgram(), binds, Options{Functional: true}); err != nil {
		t.Fatal(err)
	}
	want, _ := tensor.ReferenceGemm(binds["A"], binds["B"], 1, 0)
	if d, _ := tensor.MaxAbsDiff(want, binds["C"]); d > 1e-4 {
		t.Fatal("output tensor was not cleared before the run")
	}
}

func TestRunUnbalancedWaitFails(t *testing.T) {
	p := &ir.Program{
		Name:    "bad",
		Tensors: []ir.TensorDecl{{Name: "A", Dims: []int{4}}},
		Body: []ir.Stmt{
			&ir.AllocSPM{Buf: "a", Elems: ir.Const(4)},
			&ir.DMAWait{Reply: "r", Times: ir.Const(1)},
		},
	}
	if _, err := Run(p, map[string]*tensor.Tensor{"A": tensor.New("A", 4)}, Options{}); err == nil {
		t.Fatal("wait without issue must fail")
	}
}

func TestRunLeakedDMAFails(t *testing.T) {
	p := &ir.Program{
		Name:    "leak",
		Tensors: []ir.TensorDecl{{Name: "A", Dims: []int{4}}},
		Body: []ir.Stmt{
			&ir.AllocSPM{Buf: "a", Elems: ir.Const(4)},
			&ir.DMAOp{Move: ir.RegionMove{
				Tensor: "A", Dir: ir.Get,
				Start: []ir.Expr{ir.Const(0)}, Extent: []ir.Expr{ir.Const(4)},
				Buf: "a", BufOff: ir.Const(0),
			}, Reply: "r"},
			// no wait
		},
	}
	if _, err := Run(p, map[string]*tensor.Tensor{"A": tensor.New("A", 4)}, Options{}); err == nil {
		t.Fatal("un-waited DMA must be reported")
	}
}

func TestRunPutAccAccumulates(t *testing.T) {
	p := &ir.Program{
		Name: "acc",
		Tensors: []ir.TensorDecl{
			{Name: "X", Dims: []int{4}},
			{Name: "Y", Dims: []int{4}, Output: true},
		},
		Body: []ir.Stmt{
			&ir.AllocSPM{Buf: "b", Elems: ir.Const(4)},
			&ir.For{Iter: "i", Extent: ir.Const(3), Body: []ir.Stmt{
				&ir.RegionMove{Tensor: "X", Dir: ir.Get,
					Start: []ir.Expr{ir.Const(0)}, Extent: []ir.Expr{ir.Const(4)},
					Buf: "b", BufOff: ir.Const(0)},
				&ir.RegionMove{Tensor: "Y", Dir: ir.PutAcc,
					Start: []ir.Expr{ir.Const(0)}, Extent: []ir.Expr{ir.Const(4)},
					Buf: "b", BufOff: ir.Const(0)},
			}},
			&ir.FreeSPM{Buf: "b"},
		},
	}
	x := tensor.New("X", 4)
	x.Fill(2)
	y := tensor.New("Y", 4)
	if _, err := Run(p, map[string]*tensor.Tensor{"X": x, "Y": y}, Options{Functional: true}); err != nil {
		t.Fatal(err)
	}
	if y.At(0) != 6 {
		t.Fatalf("PutAcc over 3 iterations: got %g, want 6", y.At(0))
	}
}

func TestRunDispatchOverheadCharged(t *testing.T) {
	p := manualProgram()
	binds := bind3()
	base, err := Run(p, binds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.DispatchOverheadSeconds = 1e-3
	binds2 := bind3()
	withOv, err := Run(p, binds2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withOv.Seconds < base.Seconds+0.9e-3 {
		t.Fatalf("dispatch overhead not charged: %g vs %g", withOv.Seconds, base.Seconds)
	}
}

func TestBindVirtualMatchesDecls(t *testing.T) {
	p := manualProgram()
	p.Tensors[0].Layout = []int{1, 0}
	binds, err := BindVirtual(p)
	if err != nil {
		t.Fatal(err)
	}
	if binds["A"].Strides[0] != 1 || binds["A"].Strides[1] != 4 {
		t.Fatalf("virtual binding ignores layout: %v", binds["A"].Strides)
	}
	if binds["A"].Data != nil {
		t.Fatal("virtual binding must not allocate data")
	}
	// Timed-only run works on virtual tensors.
	if _, err := Run(p, binds, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestFastLoopsMatchExactOnUniformLoop(t *testing.T) {
	mk := func() *ir.Program {
		return &ir.Program{
			Name:    "loop",
			Tensors: []ir.TensorDecl{{Name: "X", Dims: []int{4096}}},
			Body: []ir.Stmt{
				&ir.AllocSPM{Buf: "b", Elems: ir.Const(64)},
				&ir.For{Iter: "i", Extent: ir.Const(64), Body: []ir.Stmt{
					&ir.RegionMove{Tensor: "X", Dir: ir.Get,
						Start:  []ir.Expr{ir.Mul(ir.V("i"), ir.Const(64))},
						Extent: []ir.Expr{ir.Const(64)},
						Buf:    "b", BufOff: ir.Const(0)},
				}},
				&ir.FreeSPM{Buf: "b"},
			},
		}
	}
	x := tensor.New("X", 4096)
	exact, err := Run(mk(), map[string]*tensor.Tensor{"X": x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(mk(), map[string]*tensor.Tensor{"X": x}, Options{FastLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	rel := fast.Seconds/exact.Seconds - 1
	if rel < -0.02 || rel > 0.02 {
		t.Fatalf("fast loops off by %.2f%% on a uniform loop", rel*100)
	}
	if fast.Counters.DMAOps != exact.Counters.DMAOps {
		t.Fatalf("counter extrapolation wrong: %d vs %d", fast.Counters.DMAOps, exact.Counters.DMAOps)
	}
}

// TestRunSharedMachine: two operators executed on one machine serialize on
// one timeline — per-run Seconds are deltas, counters accumulate, and the
// shared clock equals the sum of the isolated runs.
func TestRunSharedMachine(t *testing.T) {
	solo, err := Run(manualProgram(), bind3(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sw26010.NewMachine()
	first, err := Run(manualProgram(), bind3(), Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	m.ResetSPM()
	second, err := Run(manualProgram(), bind3(), Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	// The second delta is a subtraction of two large clock values, so allow
	// float rounding at the last ulp; everything else is exact.
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
	if first.Seconds != solo.Seconds {
		t.Fatalf("first shared run %g, isolated %g", first.Seconds, solo.Seconds)
	}
	if !close(second.Seconds, solo.Seconds) {
		t.Fatalf("second shared run %g, isolated %g — delta accounting broken", second.Seconds, solo.Seconds)
	}
	if got, want := m.Elapsed(), 2*solo.Seconds; !close(got, want) {
		t.Fatalf("shared clock %g, want %g", got, want)
	}
	if second.Counters.GemmCalls != 2 || second.Counters.DMAOps != 6 {
		t.Fatalf("counters should accumulate on a shared machine: %+v", second.Counters)
	}
}

// TestRunMetrics: the exec layer reports run counts, the latency histogram
// and accumulated machine seconds; failures land in the failure counter.
func TestRunMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	res, err := Run(manualProgram(), bind3(), Options{Functional: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("exec_runs_total").Value(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
	if got := reg.Histogram("exec_run_seconds").Count(); got != 1 {
		t.Fatalf("latency observations = %d, want 1", got)
	}
	if got := reg.Gauge("exec_machine_seconds").Value(); got != res.Seconds {
		t.Fatalf("machine seconds = %g, want %g", got, res.Seconds)
	}

	// A failing run (unbound tensor) counts as a failure, not a latency.
	if _, err := Run(manualProgram(), nil, Options{Metrics: reg}); err == nil {
		t.Fatal("run with no bindings must fail")
	}
	if got := reg.Counter("exec_run_failures_total").Value(); got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
	if got := reg.Histogram("exec_run_seconds").Count(); got != 1 {
		t.Fatal("failed runs must not observe latency")
	}
}

// TestWaitTraceEvents: an un-overlapped DMA wait shows up as a wait-kind
// stall interval on the timeline; a fully hidden one does not.
func TestWaitTraceEvents(t *testing.T) {
	var log trace.Log
	if _, err := Run(manualProgram(), bind3(), Options{Functional: true, Trace: &log}); err != nil {
		t.Fatal(err)
	}
	// The manual program issues synchronous RegionMoves: waits are exposed.
	if log.BusyTime(trace.KindWait) <= 0 {
		t.Fatalf("synchronous moves must expose wait time:\n%s", log.Summary())
	}
	for _, ev := range log.Events {
		if ev.Kind == trace.KindWait && ev.Dur <= 0 {
			t.Fatalf("wait event with non-positive duration: %+v", ev)
		}
	}
}

// TestSPMDataOnlyWhenFunctional: timed-only runs account scratch-pad
// capacity without storage; functional runs attach exactly Elems values.
func TestSPMDataOnlyWhenFunctional(t *testing.T) {
	for _, functional := range []bool{false, true} {
		p := manualProgram()
		p.Body = p.Body[:len(p.Body)-3] // keep the buffers live after the run
		m := sw26010.NewMachine()
		if _, err := Run(p, bind3(), Options{Functional: functional, Machine: m}); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"a", "b", "c"} {
			buf, err := m.SPM().Get(name)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !functional && buf.Data != nil:
				t.Fatalf("timed-only buffer %s carries %d values", name, len(buf.Data))
			case functional && len(buf.Data) != buf.Elems:
				t.Fatalf("functional buffer %s has %d values, want %d", name, len(buf.Data), buf.Elems)
			}
		}
	}
}

// TestSPMBoundsCheckedInBothModes: a DMA frame or GEMM operand reaching
// past its buffer fails timed-only runs exactly like functional ones.
func TestSPMBoundsCheckedInBothModes(t *testing.T) {
	cases := map[string]func(p *ir.Program){
		"dma frame": func(p *ir.Program) {
			p.Body[3].(*ir.RegionMove).BufOff = ir.Const(1)
		},
		"gemm offset": func(p *ir.Program) {
			p.Body[6].(*ir.Gemm).COff = ir.Const(17)
		},
	}
	for name, mutate := range cases {
		for _, functional := range []bool{false, true} {
			p := manualProgram()
			mutate(p)
			if _, err := Run(p, bind3(), Options{Functional: functional}); err == nil {
				t.Fatalf("%s out of range (functional=%v) must fail", name, functional)
			}
		}
	}
}
