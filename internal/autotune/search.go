// search.go is the sample-efficient tuning path: ModelBasedCtx with
// Options.Searcher set delegates here instead of walking the whole space.
// This file owns everything the searcher must not know about — schedule
// compilation, the analytic cost model, the measurement worker pool with
// its panic isolation and retry policy, transfer seeding from the cache
// library, and the metrics/obsrv instrumentation — and hands the searcher a
// pure search.Problem over the mixed-radix index space.
package autotune

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"swatop/internal/costmodel"
	"swatop/internal/obsrv"
	"swatop/internal/schedule"
	"swatop/internal/search"
)

// DefaultSearchBudget is the fraction of the candidate space a searcher may
// measure when Options.SearchBudget is unset — the ROADMAP's "≤10% of the
// candidates" target.
const DefaultSearchBudget = 0.10

// TransferSeeds is how many nearest-neighbor cached winners seed the
// searcher's population when Options.Transfer is set.
const TransferSeeds = 3

// searchBased tunes op with the configured Searcher. The determinism
// contract of the exhaustive walk carries over: given (SearchSeed, budget)
// the chosen schedule and the measured-candidate ledger are bit-identical
// for every Workers value, because measurement batches are merged in index
// order before the searcher sees them.
func searchBased(ctx context.Context, op Operator, model *costmodel.GemmModel, opts Options) (Result, error) {
	t0 := time.Now()
	opts.job = opts.Observer.Jobs().Start("tune", op.Name())
	opts.job.SetDetail("search:" + opts.Searcher.Name())
	opts.Observer.Emit(obsrv.LevelInfo, "tune.start",
		obsrv.F("op", op.Name()), obsrv.F("mode", opts.Searcher.Name()))
	ok := false
	defer func() {
		if !ok {
			opts.job.Finish(obsrv.JobFailed)
		}
	}()

	dims, err := schedule.Describe(op.Seed(), op.Space())
	if err != nil {
		return Result{}, fmt.Errorf("autotune %s: %w", op.Name(), err)
	}
	size := dims.Size()
	frac := opts.SearchBudget
	if frac <= 0 {
		frac = DefaultSearchBudget
	}
	budget := search.BudgetFor(frac, size)
	opts.Metrics.Gauge("search_budget_candidates").Set(float64(budget))
	opts.Metrics.Counter("autotune_space_points_total").Add(int64(size))

	seed := opts.SearchSeed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(op.Name()))
		seed = h.Sum64()
	}

	// Transfer: cached winners of the nearest same-family shapes land on
	// the closest legal points of this space and start the population.
	var seeds []int
	if opts.Transfer != nil {
		for _, e := range opts.Transfer.Nearest(op.Name(), TransferSeeds) {
			seeds = append(seeds, dims.NearestIndex(e.Strategy()))
		}
		opts.Metrics.Counter("search_transfer_seeds_total").Add(int64(len(seeds)))
		if len(seeds) > 0 && opts.Observer.Enabled() {
			opts.Observer.Emit(obsrv.LevelDebug, "search.transfer",
				obsrv.F("op", op.Name()), obsrv.F("seeds", len(seeds)))
		}
	}

	// Eval: compile + analytic estimate + featurize, never run. Panics and
	// estimator errors make the point infeasible — the searcher routes
	// around it, same as a failed compile.
	evalPoint := func(idx int) (search.Point, bool) {
		st := dims.At(idx)
		var feat []float64
		var total float64
		c, everr, _ := evalOnce(op, st, func(c *Candidate) error {
			est, eerr := costmodel.EstimateProgram(model, c.Program)
			if eerr != nil {
				return eerr
			}
			total = est.Total()
			feat = search.Features(op.Seed(), st, c.Program, est)
			return nil
		})
		if everr != nil || c == nil {
			return search.Point{}, false
		}
		return search.Point{Index: idx, Features: feat, Estimate: total}, true
	}

	// Measure: one batch = one compile+launch overhead charge plus the
	// measured runs, parallel across Workers, merged in index order so the
	// ledger (and every downstream model fit) is worker-count-invariant.
	var (
		machine  = 0.0
		failed   = 0
		fatalErr error
		mu       sync.Mutex
	)
	measureBatch := func(indices []int) []search.Measured {
		if fatalErr != nil || ctx.Err() != nil || len(indices) == 0 {
			return nil
		}
		machine += CompileLaunchOverheadSeconds
		out := make([]search.Measured, 0, len(indices))
		workers := opts.Workers
		if workers < 1 {
			workers = 1
		}
		if workers > len(indices) {
			workers = len(indices)
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range jobs {
					c, cerr := evalCandidate(op, idx, dims.At(idx), measure(opts), opts)
					mu.Lock()
					switch {
					case cerr != nil:
						var ce *CandidateError
						if errors.As(cerr, &ce) {
							failed++
							if opts.MaxCandidateFailures > 0 && failed > opts.MaxCandidateFailures {
								fatalErr = fmt.Errorf("%d candidate failures exceed limit %d, last: %w",
									failed, opts.MaxCandidateFailures, cerr)
							}
						} else if fatalErr == nil {
							fatalErr = cerr
						}
					case c != nil:
						opts.Metrics.Counter("autotune_candidates_total").Inc()
						opts.Metrics.Counter("autotune_candidates_valid_total").Inc()
						out = append(out, search.Measured{Index: idx, Seconds: c.Measured})
					default:
						// Evaluated as feasible but no longer compiles — a
						// nondeterministic operator; contain like a failure.
						failed++
					}
					mu.Unlock()
				}
			}()
		}
		for _, idx := range indices {
			jobs <- idx
		}
		close(jobs)
		wg.Wait()
		sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
		for _, m := range out {
			machine += m.Seconds
		}
		return out
	}

	// Report: per-round metrics deltas, the live job and the search.round /
	// search.converged event stream.
	var lastProposed, lastMeasured, lastPruned int64
	report := func(ri search.RoundInfo) {
		opts.Metrics.Counter("search_rounds_total").Inc()
		opts.Metrics.Counter("search_candidates_proposed_total").Add(int64(ri.Proposed) - lastProposed)
		opts.Metrics.Counter("search_candidates_measured_total").Add(int64(ri.MeasuredN) - lastMeasured)
		opts.Metrics.Counter("search_candidates_pruned_total").Add(int64(ri.Pruned) - lastPruned)
		lastProposed, lastMeasured, lastPruned = int64(ri.Proposed), int64(ri.MeasuredN), int64(ri.Pruned)
		opts.Metrics.Gauge("search_model_mae_seconds").Set(ri.ModelMAE)
		if ri.BestIndex >= 0 {
			opts.Metrics.Gauge("autotune_best_measured_seconds").Set(ri.BestSeconds)
		}
		mu.Lock()
		f := failed
		mu.Unlock()
		opts.job.Progress(ri.Proposed, ri.MeasuredN, f, ri.BestSeconds*1e3)
		if opts.Observer.Enabled() {
			opts.Observer.Emit(obsrv.LevelDebug, "search.round",
				obsrv.F("op", op.Name()), obsrv.F("round", ri.Round),
				obsrv.F("proposed", ri.Proposed), obsrv.F("measured", ri.MeasuredN),
				obsrv.F("pruned", ri.Pruned), obsrv.F("best_index", ri.BestIndex),
				obsrv.Ms("best_ms", ri.BestSeconds), obsrv.Ms("model_mae_ms", ri.ModelMAE))
			if ri.Converged {
				opts.Observer.Emit(obsrv.LevelInfo, "search.converged",
					obsrv.F("op", op.Name()), obsrv.F("rounds", ri.Round),
					obsrv.F("measured", ri.MeasuredN), obsrv.Ms("best_ms", ri.BestSeconds))
			}
		}
	}

	sres, serr := opts.Searcher.Search(&search.Problem{
		Radices: dims.Radices(),
		Size:    size,
		Budget:  budget,
		Seed:    seed,
		Seeds:   seeds,
		Eval:    evalPoint,
		Measure: measureBatch,
		Report:  report,
	})
	if fatalErr != nil {
		serr = fatalErr
	} else if serr == nil {
		serr = ctx.Err()
	}
	if serr != nil {
		serr = fmt.Errorf("autotune %s (%s): %w", op.Name(), opts.Searcher.Name(), serr)
		opts.Observer.Emit(obsrv.LevelError, "tune.fail",
			obsrv.F("op", op.Name()), obsrv.F("error", serr))
		return Result{}, serr
	}

	// Rebuild the winning candidate (the searcher only tracks indices).
	st := dims.At(sres.BestIndex)
	pt, _ := evalPoint(sres.BestIndex)
	prog, cerr := op.Compile(st)
	if cerr != nil {
		return Result{}, fmt.Errorf("autotune %s: recompile winner %s: %w", op.Name(), st, cerr)
	}
	res := Result{
		Best:             Candidate{Strategy: st, Program: prog, Predicted: pt.Estimate, Measured: sres.BestSeconds},
		SpaceSize:        size,
		Valid:            len(sres.Ledger),
		FailedCandidates: failed,
		MachineSeconds:   machine,
		Proposed:         sres.Proposed,
		Measured:         len(sres.Ledger),
		Rounds:           sres.Rounds,
		Converged:        sres.Converged,
		WallSeconds:      time.Since(t0).Seconds(),
	}
	opts.Metrics.Gauge("autotune_search_wall_seconds").Add(res.WallSeconds)
	opts.Metrics.Gauge("autotune_best_measured_seconds").Set(res.Best.Measured)
	opts.Metrics.Gauge("autotune_machine_seconds").Add(res.MachineSeconds)
	if opts.Observer.Enabled() {
		opts.Observer.Emit(obsrv.LevelInfo, "tune.finish",
			obsrv.F("op", op.Name()), obsrv.F("mode", opts.Searcher.Name()),
			obsrv.F("valid", res.Valid), obsrv.F("failed", res.FailedCandidates),
			obsrv.F("proposed", res.Proposed), obsrv.F("rounds", res.Rounds),
			obsrv.F("space", size), obsrv.F("strategy", st.String()),
			obsrv.Ms("best_ms", res.Best.Measured),
			obsrv.F("machine_seconds", res.MachineSeconds))
	}
	opts.job.Progress(res.Proposed, res.Valid, res.FailedCandidates, res.Best.Measured*1e3)
	opts.job.Finish(obsrv.JobDone)
	ok = true
	return res, nil
}
