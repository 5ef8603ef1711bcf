package infer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"swatop/internal/cluster"
	"swatop/internal/gemm"
	"swatop/internal/graph"
	"swatop/internal/reqtrace"
	"swatop/internal/sw26010"
	"swatop/internal/tensor"
	"swatop/internal/trace"
)

// This file is the core-group fleet runtime: the scale-out path of Run when
// Options.Groups > 1. A fleet run is a plan of lockstep phases executed by
// one loop (runPhase). In each phase every group runs its part — a slice of
// the batch, or a column shard of a fully-connected layer — on its own
// machine with its own tensor table; the fleet joins, advances its clock by
// the slowest part and ends the phase in one modeled collective. The
// determinism invariant holds by construction: schedules resolve
// sequentially while the plan is built, concurrent groups write metrics
// only under disjoint cluster.GroupPrefix names, and all aggregation
// (counters, timelines, the fleet clock) happens after each join, in fixed
// group order.

// shard is one resolved graph a fleet group executes: the net rebuilt at a
// shard batch size, or a single-node shard of its fully-connected tail.
// nodes is the topo-order slice it runs (the hybrid split stops a batch
// shard before its fc tail).
type shard struct {
	g        *graph.Graph
	nodes    []*graph.Node
	resolved map[string]*Resolved
	plan     Plan
}

// newShard resolves a shard's schedules and plans its buffers.
func (e *Engine) newShard(ctx context.Context, g *graph.Graph, nodes []*graph.Node, opts Options) (*shard, error) {
	resolved, err := e.resolveNodes(ctx, g, nodes, opts)
	if err != nil {
		return nil, err
	}
	return &shard{g: g, nodes: nodes, resolved: resolved, plan: planBuffers(g)}, nil
}

// cols is a slice of a full fleet tensor viewed as rows of width elements:
// columns [off, off+n) of every row. A part's own tensor holds exactly
// those n columns per row.
type cols struct{ width, off, n int }

// part is one group's work in a phase: which slices of the fleet's full
// tensors it reads (activation in, fc weight rows) and produces in
// functional mode. A zero out slice contributes nothing to the gather.
type part struct {
	*shard
	in, w, out cols
}

// collective is the modeled communication that ends a phase. Groups
// 0..groups-1 take part; each gets one comm event on its timeline row.
type collective struct {
	name, dst string
	secs      float64
	groups    int
}

// phase is one lockstep step of a fleet plan.
type phase struct {
	// name labels every group's exec span, so per-phase skew stays
	// comparable across groups.
	name  string
	parts []*part // one per group; nil idles the group for this phase
	// node is the fc-tail node a column-sharded phase computes; its layer
	// report carries the whole layer's FLOPs.
	node *graph.Node
	// in and out name the full tensors the parts slice their input from and
	// gather their output into; weight is the full fc weight the parts slice
	// rows from (functional mode only).
	in, out string
	weight  *tensor.Tensor
	comm    collective
}

// partRun is what one group's part produced.
type partRun struct {
	res     Result
	log     *trace.Log
	t0, dur float64
	out     *tensor.Tensor // functional: the part's output tensor
	err     error
}

// runFleet plans the fleet run, executes its phases in order and
// aggregates the per-group machines.
func (e *Engine) runFleet(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if opts.Groups > sw26010.NumCG {
		return nil, fmt.Errorf("infer %s: %d groups, but one SW26010 node has %d core groups",
			g.Name, opts.Groups, sw26010.NumCG)
	}
	if opts.Builder == nil {
		return nil, fmt.Errorf("infer %s: fleet mode needs Options.Builder to rebuild the net at shard batch sizes", g.Name)
	}
	G := opts.Groups
	shards, err := cluster.ShardBatch(g.Batch, G)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	fleet, err := cluster.New(G)
	if err != nil {
		return nil, fmt.Errorf("infer %s: %w", g.Name, err)
	}
	phases, err := e.planFleet(ctx, g, opts, shards)
	if err != nil {
		return nil, err
	}
	opts.job.SetDetail(fmt.Sprintf("executing on %d groups", G))

	envs := make([]execEnv, G)
	for i := range envs {
		envs[i] = execEnv{
			m:            fleet.Machine(i),
			reg:          opts.Metrics.Scope(cluster.GroupPrefix(i)),
			obs:          opts.Observer,
			group:        i,
			functional:   opts.Functional,
			tolerance:    opts.Tolerance,
			skipBaseline: true,
		}
	}
	res := &Result{
		Net: g.Name, Batch: g.Batch, FLOPs: g.FLOPs(),
		Plan: phases[0].parts[0].plan, Mode: ModeDataParallel, Timeline: &trace.Log{},
	}
	var act *tensor.Tensor
	if opts.Functional {
		act = fullTensor(g, g.Input, 0)
	}
	for _, p := range phases {
		if act, err = e.runPhase(ctx, g, p, envs, opts, res, act); err != nil {
			return nil, err
		}
	}
	for i := 0; i < G; i++ {
		m := fleet.Machine(i)
		res.Counters.Accumulate(m.Counters)
		res.Groups = append(res.Groups, GroupResult{
			Group: i, Batch: shards[i], Seconds: m.Elapsed(), Counters: m.Counters,
		})
	}
	res.Output = act
	publishFleet(opts, fleet, res)
	return res, nil
}

// runPhase runs every group's part of one phase, joins them in fixed group
// order, advances the fleet clock (res.Seconds) by the slowest part, merges
// timelines, layers and resolution counts into res, and ends in the phase's
// collective. In functional mode it returns the gathered full output; act
// is the full input the parts slice from.
func (e *Engine) runPhase(ctx context.Context, g *graph.Graph, p *phase, envs []execEnv,
	opts Options, res *Result, act *tensor.Tensor) (*tensor.Tensor, error) {
	runs := make([]partRun, len(p.parts))
	runGroups(len(p.parts), opts.serialFleet, func(i int) {
		if p.parts[i] != nil {
			runs[i] = e.runPart(ctx, p, p.parts[i], envs[i], opts.Spans, act)
		}
	})
	start := res.Seconds
	longest := 0.0
	for i, r := range runs {
		if p.parts[i] == nil {
			continue
		}
		if r.err != nil {
			return nil, r.err
		}
		if r.dur > longest {
			longest = r.dur
		}
		res.Timeline.MergeGroup(i, start-r.t0, r.log)
		res.TunedOps += r.res.TunedOps
		res.CachedOps += r.res.CachedOps
		res.DegradedOps += r.res.DegradedOps
	}
	// The report's layers are the lead group's, restamped onto the fleet
	// clock.
	for _, l := range runs[0].res.Layers {
		l.Start = start + (l.Start - runs[0].t0)
		if p.node != nil && p.node.Kind == graph.Gemm {
			l.FLOPs = p.node.Gemm.FLOPs()
		}
		res.Layers = append(res.Layers, l)
	}
	res.Seconds = start + longest
	if c := p.comm; c.secs > 0 {
		for i := 0; i < c.groups; i++ {
			res.Timeline.AddGroupArgs(i, trace.KindComm, c.name, res.Seconds, c.secs,
				map[string]string{"src": fmt.Sprintf("group%d", i), "dst": c.dst})
		}
		res.Seconds += c.secs
		res.CommSeconds += c.secs
	}
	if act == nil {
		return nil, nil
	}
	out := tensor.New(p.out, graphDims(g, p.out)...)
	for i, r := range runs {
		if pt := p.parts[i]; pt != nil && pt.out.n > 0 {
			copySpan(out, pt.out.width, pt.out.off, r.out, pt.out.n, 0, pt.out.n)
		}
	}
	return out, nil
}

// runPart executes one group's part on its machine. In functional mode it
// first loads the part's slices of the full input (and fc weight).
func (e *Engine) runPart(ctx context.Context, p *phase, pt *part, env execEnv,
	spans *reqtrace.Spans, act *tensor.Tensor) partRun {
	ts, err := allocTensors(pt.g, pt.resolved, pt.plan, env.functional)
	if err != nil {
		return partRun{err: err}
	}
	if env.functional {
		copySpan(ts[p.in], pt.in.n, 0, act, pt.in.width, pt.in.off, pt.in.n)
		if p.weight != nil {
			copySpan(ts[p.node.In[1]], pt.w.n, 0, p.weight, pt.w.width, pt.w.off, pt.w.n)
		}
	}
	r := partRun{log: &trace.Log{}, t0: env.m.Now()}
	execT0 := time.Now()
	if r.err = e.execNodes(ctx, pt.g, pt.nodes, pt.resolved, ts, &r.res, r.log, env); r.err != nil {
		return r
	}
	// exec.Run fails on any DMA left outstanding, so the compute clock is
	// where the part's last transfer landed.
	r.dur = env.m.Now() - r.t0
	if spans != nil {
		spans.AddGroup(reqtrace.PhaseExec, p.name, env.group, execT0, time.Since(execT0),
			map[string]string{"machine_ms": reqtrace.MsArg(r.dur * 1e3)})
	}
	if env.functional {
		r.out = ts[p.out]
	}
	return r
}

// planFleet builds the phase list of a fleet run, resolving every schedule
// it needs sequentially — the library and tuner are never touched while
// groups execute. Plain data parallelism is one batch-sharded phase over
// the whole net, ending in the gather of the shard outputs onto the lead
// group. Nets ending in a fully-connected tail take swCaffe's hybrid split:
// a batch-sharded head phase ending in an all-gather, then one
// column-sharded phase per tail node (see hybridTail).
func (e *Engine) planFleet(ctx context.Context, g *graph.Graph, opts Options, shards []int) ([]*phase, error) {
	G, B := len(shards), g.Batch
	topo := g.Topo()
	tailStart, hybrid := hybridTail(g, topo)
	end := len(topo)
	if hybrid {
		end = tailStart
	}
	var phases []*phase
	if end > 0 {
		head := &phase{name: "exec shard", parts: make([]*part, G), in: g.Input, out: topo[end-1].Out}
		if opts.Functional {
			for _, name := range []string{head.in, head.out} {
				if dims := graphDims(g, name); dims[len(dims)-1] != B {
					return nil, fmt.Errorf("infer %s: tensor %s dims %v do not end in the batch extent %d",
						g.Name, name, dims, B)
				}
			}
		}
		// Resolve once per distinct shard size. A zero shard (batch <
		// groups) has no graph to build: that group idles this phase.
		built := map[int]*shard{}
		active, off := 0, 0
		for i, b := range shards {
			if b == 0 {
				continue
			}
			sh := built[b]
			if sh == nil {
				sg, err := buildShard(g, opts, b)
				if err != nil {
					return nil, err
				}
				if n := sg.NumNodes(); n != len(topo) {
					return nil, fmt.Errorf("infer %s: batch-%d shard has %d nodes, the full graph %d",
						g.Name, b, n, len(topo))
				}
				if sh, err = e.newShard(ctx, sg, sg.Topo()[:end], opts); err != nil {
					return nil, err
				}
				built[b] = sh
			}
			slice := cols{B, off, b}
			head.parts[i] = &part{shard: sh, in: slice, out: slice}
			active++
			off += b
		}
		bytes := int64(elemCount(graphDims(g, head.out))) * 4
		if hybrid {
			head.name = "exec conv head"
			head.comm = collective{"allgather " + head.out, "all groups", cluster.AllGatherSeconds(bytes, G), G}
		} else {
			// Only groups that ran contribute shard outputs to the gather.
			head.comm = collective{"gather outputs", "group0", cluster.GatherSeconds(bytes, active), active}
		}
		phases = append(phases, head)
	}
	if !hybrid {
		return phases, nil
	}
	for ti, n := range topo[tailStart:] {
		p, err := e.planTail(ctx, g, opts, n, G)
		if err != nil {
			return nil, err
		}
		if n.Kind == graph.Gemm {
			bytes := int64(elemCount(graphDims(g, n.Out))) * 4
			if ti == len(topo)-tailStart-1 {
				p.comm = collective{"gather " + n.Name, "group0", cluster.GatherSeconds(bytes, G), G}
			} else {
				p.comm = collective{"allgather " + n.Name, "all groups", cluster.AllGatherSeconds(bytes, G), G}
			}
		}
		phases = append(phases, p)
	}
	return phases, nil
}

// planTail builds the phase of one fc-tail node at the full batch. A gemm
// shards its output columns across the groups, so each group loads only
// 1/G of the weights; an elementwise op runs whole and redundantly on
// every group after the all-gather, like the duplicated activations of
// tensor parallelism, and the lead group's copy is the result.
func (e *Engine) planTail(ctx context.Context, g *graph.Graph, opts Options, n *graph.Node, G int) (*phase, error) {
	B := g.Batch
	size := elemCount(graphDims(g, n.In[0]))
	all := cols{size, 0, size}
	p := &phase{name: "exec fc " + n.Name, parts: make([]*part, G), node: n, in: n.In[0], out: n.Out}
	var widths []int
	if n.Kind == graph.Gemm {
		widths = shardCols(n.Gemm.M, G)
		if opts.Functional {
			p.weight = fullTensor(g, n.In[1], n.Gemm.K)
		}
	}
	built := map[int]*shard{}
	off := 0
	for i := 0; i < G; i++ {
		w := 0
		if n.Kind == graph.Gemm {
			if w = widths[i]; w == 0 {
				continue // a tiny layer may leave trailing groups no columns
			}
		}
		sh := built[w]
		if sh == nil {
			sg, err := buildTailShard(g, n, w)
			if err != nil {
				return nil, fmt.Errorf("infer %s: node %s: %w", g.Name, n.Name, err)
			}
			if sh, err = e.newShard(ctx, sg, sg.Topo(), opts); err != nil {
				return nil, err
			}
			built[w] = sh
		}
		pt := &part{shard: sh, in: all}
		switch {
		case n.Kind == graph.Gemm:
			M, K := n.Gemm.M, n.Gemm.K
			pt.w = cols{M * K, off * K, w * K}
			pt.out = cols{M * B, off * B, w * B}
			off += w
		case i == 0:
			pt.out = all
		}
		p.parts[i] = pt
	}
	return p, nil
}

// buildShard rebuilds and validates the network at a shard batch size.
func buildShard(g *graph.Graph, opts Options, batch int) (*graph.Graph, error) {
	sg, err := opts.Builder(batch)
	if err != nil {
		return nil, fmt.Errorf("infer %s: building batch-%d shard: %w", g.Name, batch, err)
	}
	if err := sg.Validate(); err != nil {
		return nil, fmt.Errorf("infer %s: batch-%d shard: %w", g.Name, batch, err)
	}
	if sg.Batch != batch {
		return nil, fmt.Errorf("infer %s: Builder(%d) built a batch-%d graph", g.Name, batch, sg.Batch)
	}
	return sg, nil
}

// buildTailShard builds the single-node graph one group runs for an
// fc-tail node at the full batch, naming its tensors after the full
// graph's: a gemm's column shard, out[width×B] = weight[width×K] ×
// in[K×B], or an elementwise op over the whole activation.
func buildTailShard(g *graph.Graph, n *graph.Node, width int) (*graph.Graph, error) {
	B := g.Batch
	name := fmt.Sprintf("%s_%s_full", g.Name, n.Name)
	inFeats := elemCount(graphDims(g, n.In[0])) / B
	outFeats := inFeats
	node := &graph.Node{Name: n.Name, Kind: n.Kind, In: n.In, Out: n.Out}
	if n.Kind == graph.Gemm {
		name = fmt.Sprintf("%s_%s_w%d", g.Name, n.Name, width)
		outFeats = width
		node.Gemm = gemm.Params{M: width, N: B, K: n.Gemm.K}
	}
	sg := graph.New(name, B)
	if _, err := sg.AddTensor(n.In[0], []int{inFeats, B}, false); err != nil {
		return nil, err
	}
	sg.Input = n.In[0]
	if n.Kind == graph.Gemm {
		if _, err := sg.AddTensor(n.In[1], []int{width, n.Gemm.K}, true); err != nil {
			return nil, err
		}
	}
	if _, err := sg.AddTensor(n.Out, []int{outFeats, B}, false); err != nil {
		return nil, err
	}
	if err := sg.AddNode(node); err != nil {
		return nil, err
	}
	sg.Output = n.Out
	return sg, sg.Validate()
}

// fullTensor builds a full-graph tensor filled exactly like fillInputs
// fills it on a single machine (fanIn 0 for the graph input).
func fullTensor(g *graph.Graph, name string, fanIn int) *tensor.Tensor {
	t := tensor.New(name, graphDims(g, name)...)
	fillPattern(t, fanIn)
	return t
}

// copySpan copies columns [srcOff, srcOff+n) of every src row of width
// srcW into columns [dstOff, dstOff+n) of the dst rows of width dstW. The
// copy runs through the logical flat order, so it is layout- and
// reshape-agnostic: with batch as the fastest dimension a row width of B
// slices the batch, and a row spanning the whole tensor slices a flat
// range (fc weight rows and output features).
func copySpan(dst *tensor.Tensor, dstW, dstOff int, src *tensor.Tensor, srcW, srcOff, n int) {
	outer := src.Len() / srcW
	for o := 0; o < outer; o++ {
		for b := 0; b < n; b++ {
			setFlat(dst, atFlat(src, o*srcW+srcOff+b), o*dstW+dstOff+b)
		}
	}
}

// runGroups executes fn(0..G-1), concurrently unless the serial
// determinism reference is requested.
func runGroups(G int, serial bool, fn func(int)) {
	if serial {
		for i := 0; i < G; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// hybridTail locates the fully-connected tail of a graph and reports
// whether the hybrid data-parallel split applies: a suffix of the topo
// order, starting at the first Gemm node, forming a single chain of Gemm
// and ReLU nodes whose output features vectorize. This is swCaffe's hybrid
// parallelism: convolutions are compute-bound and shard well by batch, but
// fully-connected layers are weight-DMA-bound — running them whole on
// every group would reload the full weight matrices G times and cap the
// fleet speedup, so they shard by output columns instead.
func hybridTail(g *graph.Graph, topo []*graph.Node) (int, bool) {
	start := -1
	for i, n := range topo {
		if n.Kind == graph.Gemm {
			start = i
			break
		}
	}
	if start < 0 {
		return 0, false
	}
	cur := g.Input
	if start > 0 {
		cur = topo[start-1].Out
	}
	for _, n := range topo[start:] {
		switch n.Kind {
		case graph.Gemm:
			if len(n.In) != 2 || n.In[0] != cur || n.Gemm.M%sw26010.VectorWidth != 0 {
				return 0, false
			}
		case graph.ReLU:
			if len(n.In) != 1 || n.In[0] != cur {
				return 0, false
			}
		default:
			return 0, false
		}
		cur = n.Out
	}
	return start, true
}

// shardCols splits m output features across G groups in whole vector
// blocks, extras to the leading groups — every shard stays vectorizable
// and a trailing group may legitimately receive zero columns of a tiny
// layer (it just sits that phase out).
func shardCols(m, G int) []int {
	blocks := m / sw26010.VectorWidth
	base, extra := blocks/G, blocks%G
	w := make([]int, G)
	for i := range w {
		w[i] = base * sw26010.VectorWidth
		if i < extra {
			w[i] += sw26010.VectorWidth
		}
	}
	return w
}

// publishFleet writes a fleet run's instrumentation: per-group and
// aggregate machine counters (cluster.Fleet.Publish), the aggregate run
// gauges, and the fleet's DMA-hidden ratio measured over the merged
// timeline. Called after the groups join, sequentially — metric values are
// pure simulated-machine quantities, so snapshots stay bit-identical across
// worker counts and interleavings.
func publishFleet(opts Options, fleet *cluster.Fleet, res *Result) {
	if opts.Metrics == nil {
		return
	}
	fleet.Publish(opts.Metrics)
	opts.Metrics.Gauge("infer_arena_peak_bytes").Set(float64(res.Plan.PeakActivationBytes()))
	opts.Metrics.Gauge("infer_machine_seconds").Add(res.Seconds)
	opts.Metrics.Gauge("infer_comm_seconds").Set(res.CommSeconds)
	if dma := res.Timeline.BusyTime(trace.KindDMA); dma > 0 {
		opts.Metrics.Gauge("infer_dma_hidden_ratio").
			Set(res.Timeline.Overlap(trace.KindGemm, trace.KindDMA) / dma)
	}
}
