package experiments

import (
	"fmt"

	"swatop/internal/baseline"
	"swatop/internal/exec"
	"swatop/internal/gemm"
	"swatop/internal/workloads"
)

// GemmRow is one Listing-2 shape: swATOP's tuned GEMM vs xMath.
type GemmRow struct {
	Params  gemm.Params
	Aligned bool
	SwATOP  float64
	XMath   float64
}

// Table2Row aggregates one Table 2 quadrant.
type Table2Row struct {
	Aligned      bool
	Faster       int
	AvgFasterPct float64
	Slower       int
	AvgSlowerPct float64
}

// GemmSweep runs the Listing-2 comparison (cached). Shapes are tuned in
// parallel across r.Workers goroutines; row order is the deterministic
// listing order regardless of worker count.
func (r *Runner) GemmSweep() ([]GemmRow, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gemmCache != nil {
		return r.gemmCache, nil
	}
	type job struct {
		p       gemm.Params
		aligned bool
	}
	var jobs []job
	add := func(ps []gemm.Params, aligned bool, stride int) {
		for i, p := range ps {
			if r.Quick && i%stride != 0 {
				continue
			}
			jobs = append(jobs, job{p: p, aligned: aligned})
		}
	}
	add(workloads.Listing2Unaligned(), false, 9)
	add(workloads.Listing2Aligned(), true, 14)
	rows, err := collectRows(r, len(jobs), func(i int) (GemmRow, bool, error) {
		j := jobs[i]
		op, err := gemm.NewOp(j.p)
		if err != nil {
			return GemmRow{}, false, err
		}
		tuned, err := r.tune(op, 1)
		if err != nil {
			return GemmRow{}, false, fmt.Errorf("gemm sweep %v: %w", j.p, err)
		}
		xm, err := baseline.XMathGemm(j.p)
		if err != nil {
			return GemmRow{}, false, err
		}
		xt, err := exec.RunTimed(xm, exec.Options{})
		if err != nil {
			return GemmRow{}, false, err
		}
		return GemmRow{Params: j.p, Aligned: j.aligned, SwATOP: tuned.Best.Measured, XMath: xt}, true, nil
	})
	if err != nil {
		return nil, err
	}
	r.gemmCache = rows
	return r.gemmCache, nil
}

// Table2 reproduces Table 2: swATOP vs xMath faster/slower counts and
// average speedups, split by alignment.
func (r *Runner) Table2() ([]Table2Row, error) {
	rows, err := r.GemmSweep()
	if err != nil {
		return nil, err
	}
	agg := map[bool]*Table2Row{
		true:  {Aligned: true},
		false: {Aligned: false},
	}
	for _, row := range rows {
		a := agg[row.Aligned]
		if row.SwATOP <= row.XMath {
			a.Faster++
			a.AvgFasterPct += row.XMath/row.SwATOP - 1
		} else {
			a.Slower++
			a.AvgSlowerPct += 1 - row.XMath/row.SwATOP
		}
	}
	for _, a := range agg {
		if a.Faster > 0 {
			a.AvgFasterPct = a.AvgFasterPct / float64(a.Faster) * 100
		}
		if a.Slower > 0 {
			a.AvgSlowerPct = a.AvgSlowerPct / float64(a.Slower) * 100
		}
	}
	return []Table2Row{*agg[true], *agg[false]}, nil
}
