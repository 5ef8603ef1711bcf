package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"swatop/internal/bench"
	"swatop/internal/cache"
	"swatop/internal/graph"
	"swatop/internal/infer"
	"swatop/internal/workloads"
)

// referenceJSON records the simulated machine seconds every workload must
// reproduce bit for bit.
//
//go:embed reference.json
var referenceJSON []byte

// reference is the parsed reference.json.
type reference struct {
	// Nets are the batch-1, one-core-group machine seconds of each network;
	// Nets["vgg16"] is the replay-warm reference.
	Nets map[string]float64 `json:"nets_b1_machine_s"`
	// Buckets are the serving warm-up machine seconds per bucket on the
	// 4-group fleet; Buckets["8"] is the serve-open reference.
	Buckets map[string]float64 `json:"serve_open_bucket_machine_s"`
}

// tunedNets are the networks of the cold-tuning workload, in the fixed
// order machine seconds are summed in.
var tunedNets = []string{"vgg16", "resnet", "yolo"}

// Baseline rows the references are cross-checked against.
const (
	replayRow = "vgg16-b1"
	serveRow  = "vgg16-b8-g4"
)

// tuneCold is the cold-tuning reference: the nets' sum in tunedNets order.
func (r *reference) tuneCold() float64 {
	sum := 0.0
	for _, n := range tunedNets {
		sum += r.Nets[n]
	}
	return sum
}

// loadReference parses the embedded references and cross-checks them
// against the repository's BENCH_baseline.json rows.
func loadReference(baselinePath string) (*reference, error) {
	ref := &reference{}
	if err := json.Unmarshal(referenceJSON, ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	snap, err := bench.Load(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", baselinePath, err)
	}
	if ps := ref.check(snap); len(ps) > 0 {
		return nil, fmt.Errorf("reference.json is inconsistent: %s", strings.Join(ps, "; "))
	}
	return ref, nil
}

// check compares the references with the baseline snapshot's VGG16 rows
// bit for bit.
func (r *reference) check(snap *bench.Snapshot) []string {
	var ps []string
	for _, row := range []struct {
		name string
		want float64
	}{{replayRow, r.Nets["vgg16"]}, {serveRow, r.Buckets["8"]}} {
		w := snap.Lookup(row.name)
		if w == nil {
			ps = append(ps, fmt.Sprintf("baseline row %q missing", row.name))
			continue
		}
		if err := sameBits("baseline row "+row.name, w.MachineSeconds, row.want); err != nil {
			ps = append(ps, err.Error())
		}
	}
	return ps
}

// sameBits compares two machine-second values bit for bit.
func sameBits(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: machine seconds %v, reference %v", what, got, want)
	}
	return nil
}

// oracle is the functional check: every convolution of ResNet batch 1
// runs with real data under its tuned schedule and is compared against its
// reference implementation (VGG16 would take minutes). The reference
// convolutions dominate and run on one goroutine per engine run, so the
// net's layer chain is cut into `parts` contiguous pieces of about equal
// FLOPs, checked concurrently. Each piece tunes into a private library, so
// no workload's cache is touched.
func oracle(ctx context.Context, parts int) error {
	convs := workloads.ResNet()
	var total int64
	for _, l := range convs {
		total += l.Shape(1).FLOPs()
	}
	var pieces [][]workloads.ConvLayer
	var acc int64
	start := 0
	for i, l := range convs {
		acc += l.Shape(1).FLOPs()
		if acc*int64(parts) >= total*int64(len(pieces)+1) || i == len(convs)-1 {
			pieces = append(pieces, convs[start:i+1])
			start = i + 1
		}
	}
	errs := make([]error, len(pieces))
	var wg sync.WaitGroup
	for i, p := range pieces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = checkChain(ctx, fmt.Sprintf("resnet-part%d", i), p)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkChain tunes and functionally verifies one chain of convolutions.
func checkChain(ctx context.Context, name string, convs []workloads.ConvLayer) error {
	g, err := graph.Chain(name, 1, convs, nil)
	if err != nil {
		return err
	}
	eng, err := infer.NewEngine()
	if err != nil {
		return err
	}
	res, err := eng.Run(ctx, g, infer.Options{
		Workers:      1,
		Library:      cache.NewLibrary(),
		Functional:   true,
		SkipBaseline: true,
	})
	if err != nil {
		return err
	}
	for _, l := range res.Layers {
		if l.Kind != graph.Conv && l.Kind != graph.Gemm {
			continue
		}
		if !l.Checked || l.Degraded {
			return fmt.Errorf("%s layer %s: checked=%v degraded=%v", name, l.Name, l.Checked, l.Degraded)
		}
	}
	return nil
}

// opNodes counts a graph's tuned operator nodes.
func opNodes(g *graph.Graph) int {
	return g.CountKind(graph.Conv) + g.CountKind(graph.Gemm)
}
