package autotune

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"swatop/internal/conv"
	"swatop/internal/gemm"
	"swatop/internal/obsrv"
	"swatop/internal/tensor"
)

// sameResult asserts the parallel tuner reproduced the sequential reference
// bit-for-bit: schedule, measured/predicted times, the machine-time ledger
// and the candidate accounting.
func sameResult(t *testing.T, label string, seq, par Result) {
	t.Helper()
	if seq.Best.Strategy.String() != par.Best.Strategy.String() {
		t.Fatalf("%s: schedules differ:\nseq %s\npar %s",
			label, seq.Best.Strategy, par.Best.Strategy)
	}
	if seq.Best.Measured != par.Best.Measured {
		t.Fatalf("%s: measured %v vs %v", label, seq.Best.Measured, par.Best.Measured)
	}
	if seq.Best.Predicted != par.Best.Predicted {
		t.Fatalf("%s: predicted %v vs %v", label, seq.Best.Predicted, par.Best.Predicted)
	}
	if seq.MachineSeconds != par.MachineSeconds {
		t.Fatalf("%s: machine seconds %v vs %v — simulated time must not depend on host parallelism",
			label, seq.MachineSeconds, par.MachineSeconds)
	}
	if seq.Valid != par.Valid || seq.SpaceSize != par.SpaceSize {
		t.Fatalf("%s: accounting differs: valid %d/%d vs %d/%d",
			label, seq.Valid, seq.SpaceSize, par.Valid, par.SpaceSize)
	}
}

func TestModelBasedWorkerCountInvariance(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 256, N: 256, K: 256})
	seq, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		par, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("workers=%d", w), seq, par)
	}
}

func TestModelBasedWorkerCountInvarianceConv(t *testing.T) {
	s := tensor.ConvShape{B: 4, Ni: 32, No: 32, Ro: 8, Co: 8, Kr: 3, Kc: 3}
	tune := func(workers int) Result {
		op, err := conv.NewImplicitOp(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameResult(t, "conv workers=8", tune(1), tune(8))
}

func TestBlackBoxWorkerCountInvariance(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	seq, err := BlackBoxCtx(context.Background(), op, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BlackBoxCtx(context.Background(), op, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Best.Strategy.String() != par.Best.Strategy.String() {
		t.Fatalf("schedules differ:\nseq %s\npar %s", seq.Best.Strategy, par.Best.Strategy)
	}
	if seq.Best.Measured != par.Best.Measured || seq.MachineSeconds != par.MachineSeconds {
		t.Fatalf("ledger differs: measured %v/%v machine %v/%v",
			seq.Best.Measured, par.Best.Measured, seq.MachineSeconds, par.MachineSeconds)
	}
	if seq.Valid != par.Valid || seq.SpaceSize != par.SpaceSize {
		t.Fatalf("accounting differs: %d/%d vs %d/%d",
			seq.Valid, seq.SpaceSize, par.Valid, par.SpaceSize)
	}
}

func TestTuningCancellation(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ModelBasedCtx(ctx, op, model(t), Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel model-based: want context.Canceled, got %v", err)
	}
	if _, err := ModelBasedCtx(ctx, op, model(t), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential model-based: want context.Canceled, got %v", err)
	}
	if _, err := BlackBoxCtx(ctx, op, Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel black-box: want context.Canceled, got %v", err)
	}
}

func TestProgressReportsEveryCandidate(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 128, N: 128, K: 128})
	obs := obsrv.New()
	res, err := ModelBasedCtx(context.Background(), op, model(t), Options{Workers: 4, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	jobs := obs.Jobs().Snapshot()
	if len(jobs) != 1 {
		t.Fatalf("want one tune job, got %+v", jobs)
	}
	j := jobs[0]
	if j.Kind != "tune" || j.State != obsrv.JobDone {
		t.Fatalf("job %+v, want a finished tune job", j)
	}
	if j.Done != res.SpaceSize {
		t.Fatalf("job saw %d of %d points", j.Done, res.SpaceSize)
	}
	if j.Valid != res.Valid {
		t.Fatalf("final valid count %d, result says %d", j.Valid, res.Valid)
	}
	if j.BestMs != res.Best.Measured*1e3 {
		t.Fatalf("final best %g ms, result measured %g s", j.BestMs, res.Best.Measured)
	}
}

func TestOptionsTopKOverride(t *testing.T) {
	op := smallOp(t, gemm.Params{M: 256, N: 256, K: 256})
	one, err := ModelBasedCtx(context.Background(), op, model(t), Options{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := ModelBased(op, model(t))
	if err != nil {
		t.Fatal(err)
	}
	// k=1 pays one launch plus a single run; the default pays TopK runs.
	if one.MachineSeconds >= def.MachineSeconds {
		t.Fatalf("TopK=1 machine time %v not below default %v",
			one.MachineSeconds, def.MachineSeconds)
	}
}
