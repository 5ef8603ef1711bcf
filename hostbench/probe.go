package main

import (
	"fmt"
	"strings"
	"time"

	"swatop/internal/autotune"
	"swatop/internal/cache"
	"swatop/internal/conv"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/graph"
	"swatop/internal/infer"
	"swatop/internal/ir"
	"swatop/internal/metrics"
)

// programProbe is the lower/compile and exec/sw26010 layer split of one
// pass over a workload's operator nodes, measured by the benchmark itself
// outside the engine.
type programProbe struct {
	compileMs float64 // host ms in op.Compile over every cached schedule
	schedules int     // cached schedules compiled
	execMs    float64 // host ms in exec.Run over the resolved programs
	dmaOps    int64   // simulated DMA operations of the resolved programs
	gemmCalls int64   // simulated GEMM primitive calls
	nodes     int     // operator nodes covered
	// chosen is the strategy the probe resolved each covered node to,
	// keyed by graph and node name, in the engine's Layer.Strategy form.
	chosen map[string]string
}

// methodOp is one operator a node can resolve to; method is the engine's
// method name ("" for fully-connected layers).
type methodOp struct {
	method string
	op     autotune.Operator
}

// methodOps lists the operators a node can resolve to, in the engine's
// fixed method order (implicit, explicit, Winograd for convolutions). It
// copies the engine's resolve policy; checkChoices catches any drift.
func methodOps(n *graph.Node) []methodOp {
	var ops []methodOp
	add := func(method string, op autotune.Operator, err error) {
		if err == nil {
			ops = append(ops, methodOp{method, op})
		}
	}
	if n.Kind == graph.Gemm {
		op, err := gemm.NewOp(n.Gemm)
		add("", op, err)
		return ops
	}
	if n.Conv.Ni >= conv.MinNiImplicit {
		op, err := conv.NewImplicitOp(n.Conv)
		add("implicit", op, err)
	}
	op, err := conv.NewExplicitOp(n.Conv)
	add("explicit", op, err)
	if conv.WinogradApplies(n.Conv) {
		op, err := conv.NewWinogradOp(n.Conv)
		add("winograd", op, err)
	}
	return ops
}

// timedRun is one timed-only, fast-forwarded exec.Run of a program.
type timedRun struct {
	seconds   float64 // simulated
	hostMs    float64
	dmaOps    int64
	gemmCalls int64
	strategy  string // method and schedule, as Layer.Strategy spells it
}

func runProgram(prog *ir.Program) (timedRun, error) {
	binds, err := exec.BindVirtual(prog)
	if err != nil {
		return timedRun{}, err
	}
	t0 := time.Now()
	res, err := exec.Run(prog, binds, exec.Options{FastLoops: true})
	if err != nil {
		return timedRun{}, err
	}
	return timedRun{
		seconds:   res.Seconds,
		hostMs:    ms(time.Since(t0)),
		dmaOps:    res.Counters.DMAOps,
		gemmCalls: res.Counters.GemmCalls,
	}, nil
}

// probePrograms compiles every cached schedule of the graphs' operator
// nodes from lib (timing op.Compile), picks each node's resolved program
// the way the engine does — the fastest method by simulated time, fixed
// order, strict improvement — and charges one exec.Run of it per node
// occurrence. Nodes with no cached schedule are skipped. The library is
// read with its metrics detached, so the probe never shows up in the cache
// counters.
func probePrograms(lib *cache.Library, reg *metrics.Registry, graphs ...*graph.Graph) (programProbe, error) {
	lib.SetMetrics(nil)
	defer lib.SetMetrics(reg)
	p := programProbe{chosen: map[string]string{}}
	compiled := map[string]bool{}
	winners := map[string]timedRun{}
	for _, g := range graphs {
		for _, n := range g.Topo() {
			if n.Kind != graph.Conv && n.Kind != graph.Gemm {
				continue
			}
			var best *timedRun
			for _, m := range methodOps(n) {
				op := m.op
				ent, ok := lib.Get(op.Name())
				if !ok {
					continue
				}
				if w, seen := winners[op.Name()]; seen {
					// Shape already resolved in this probe.
					best = &w
					break
				}
				t0 := time.Now()
				prog, err := op.Compile(ent.Strategy())
				if err != nil {
					return p, fmt.Errorf("compile %s: %w", op.Name(), err)
				}
				if !compiled[op.Name()] {
					compiled[op.Name()] = true
					p.compileMs += ms(time.Since(t0))
					p.schedules++
				}
				r, err := runProgram(prog)
				if err != nil {
					return p, fmt.Errorf("exec %s: %w", op.Name(), err)
				}
				r.strategy = strings.TrimSpace(m.method + " " + ent.Strategy().String())
				if best == nil || r.seconds < best.seconds {
					best = &r
				}
			}
			if best == nil {
				continue
			}
			for _, m := range methodOps(n) {
				winners[m.op.Name()] = *best
			}
			p.chosen[g.Name+"/"+n.Name] = best.strategy
			p.nodes++
			p.execMs += best.hostMs
			p.dmaOps += best.dmaOps
			p.gemmCalls += best.gemmCalls
		}
	}
	return p, nil
}

// checkChoices fails the run unless every operator layer of an engine run
// of g that the probe covered resolved to the strategy the probe chose, so
// the probe's copy of the engine's resolve policy cannot drift unnoticed.
func (p programProbe) checkChoices(r *report, what string, g *graph.Graph, res *infer.Result) {
	matched := 0
	for _, l := range res.Layers {
		want, ok := p.chosen[g.Name+"/"+l.Name]
		if !ok || (l.Kind != graph.Conv && l.Kind != graph.Gemm) {
			continue
		}
		matched++
		if l.Strategy != want {
			r.problem("%s layer %s: engine ran %q, probe measured %q", what, l.Name, l.Strategy, want)
		}
	}
	if matched == 0 {
		r.problem("%s: the probe covered none of the engine's layers", what)
	}
}

// record stores the probe's per-layer metrics: one pass over the
// workload's networks.
func (p programProbe) record(r *report) {
	r.metrics["compile.ms"] = p.compileMs
	r.metrics["exec.ms"] = p.execMs
	r.metrics["sw.dma_ops"] = float64(p.dmaOps)
	r.metrics["sw.gemm_calls"] = float64(p.gemmCalls)
	r.metrics["exec.ns_per_dma_op"] = 0
	if p.dmaOps > 0 {
		r.metrics["exec.ns_per_dma_op"] = p.execMs * 1e6 / float64(p.dmaOps)
	}
	r.info("probe.schedules", float64(p.schedules), "count", clockHost, "cached schedules compiled")
	r.info("probe.nodes", float64(p.nodes), "count", clockHost, "operator nodes replayed through exec.Run")
}
