package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"swatop/internal/metrics"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise.
const minBeyond = 10

// tailLadder lists the percentiles a tail figure may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// summary is a sorted sample of one timing.
type summary struct {
	sorted []float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{sorted: s}
}

func (s summary) n() int { return len(s.sorted) }

// pct is the nearest-rank percentile (the repo's metrics.Percentile).
func (s summary) pct(p float64) float64 { return metrics.Percentile(s.sorted, p) }

// beyond counts the samples strictly above the p-th percentile's rank.
func (s summary) beyond(p float64) int {
	idx := metrics.PercentileIndex(s.n(), p)
	if idx < 0 {
		return 0
	}
	return s.n() - 1 - idx
}

// tail returns the highest ladder percentile with at least minBeyond
// samples beyond it, and its value; ok is false when even the median has
// fewer (the sample is too small for any tail figure).
func (s summary) tail() (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if s.beyond(p) >= minBeyond {
			return p, s.pct(p), true
		}
	}
	return 0, math.NaN(), false
}

func (s summary) mean() float64 {
	if s.n() == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.sorted {
		sum += x
	}
	return sum / float64(s.n())
}

func median(xs []float64) float64 { return summarize(xs).pct(50) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// arrivals is the open-loop schedule of one serving phase: n Poisson
// arrivals at rps requests per second, as offsets from the phase start.
// The exponential gaps come from a PCG stream keyed by (seed, stream), so
// a seed reproduces the schedule exactly and the phases of one run draw
// independent streams.
func arrivals(seed, stream uint64, rps float64, n int) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, stream))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rps
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// netOrder is the seeded permutation of the tuned networks.
func netOrder(seed uint64, nets []string) []string {
	rng := rand.New(rand.NewPCG(seed, 0))
	out := make([]string, len(nets))
	for i, j := range rng.Perm(len(nets)) {
		out[i] = nets[j]
	}
	return out
}
