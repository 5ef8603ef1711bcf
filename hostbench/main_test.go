package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"swatop/internal/bench"
	"swatop/internal/graph"
	"swatop/internal/infer"
	"swatop/internal/serve"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the subset of ../BENCHMARK.json the binary must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if d.clock != clockHost && d.clock != clockMachine {
			t.Errorf("metric %s: clock %q", d.name, d.clock)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := sortedKeys(runners); !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, binary runs %v", names, want)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, binary %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != "lower" {
			t.Errorf("end_to_end[%d] = %+v, binary %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, binary %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, binary %+v", i, m, perLayer[i])
		}
	}
}

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{10000, 99.9, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		s := summarize(samples(c.n))
		p, v, ok := s.tail()
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: tail p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if ok && (s.beyond(p) < minBeyond || v != s.pct(p)) {
			t.Errorf("n=%d: p%v = %v with %d beyond", c.n, p, v, s.beyond(p))
		}
	}
	// The reported tails always rest on at least ten samples: the p90 of
	// the 20 req/s phase and the p75 of warm replays.
	if b := summarize(samples(minOps)).beyond(90); b < minBeyond {
		t.Errorf("minOps=%d leaves %d samples beyond p90", minOps, b)
	}
	if b := summarize(samples(minInfers)).beyond(75); b < minBeyond {
		t.Errorf("minInfers=%d leaves %d samples beyond p75", minInfers, b)
	}
}

func TestArrivalScheduleIsReproducible(t *testing.T) {
	a := arrivals(7, 20, 20, 500)
	if !slices.Equal(a, arrivals(7, 20, 20, 500)) {
		t.Fatal("same seed gave a different schedule")
	}
	if slices.Equal(a, arrivals(8, 20, 20, 500)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if slices.Equal(a, arrivals(7, 8, 20, 500)) {
		t.Fatal("different phases share a stream")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes %v", i, a[i], a[i-1])
		}
	}
	// 500 arrivals at 20/s span ~25 s; Poisson spread is ~sqrt(500).
	if span := a[len(a)-1].Seconds(); span < 20 || span > 30 {
		t.Errorf("500 arrivals at 20/s span %.1fs", span)
	}
	o := netOrder(3, tunedNets)
	if !slices.Equal(o, netOrder(3, tunedNets)) {
		t.Fatal("net order not reproducible")
	}
	sorted := append([]string(nil), o...)
	sort.Strings(sorted)
	if !slices.Equal(sorted, []string{"resnet", "vgg16", "yolo"}) {
		t.Fatalf("net order %v is not a permutation", o)
	}
}

// failsRun asserts that rep fails the correctness gate: emit exits
// non-zero and the final line says correct:false.
func failsRun(t *testing.T, what string, rep *report) {
	t.Helper()
	if len(rep.problems) == 0 {
		t.Errorf("%s: no problem recorded", what)
	}
	var out bytes.Buffer
	if code := emit(&out, config{}, rep); code == 0 {
		t.Errorf("%s: a failed gate exited 0", what)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct {
		t.Errorf("%s: final line %q: correct=%v err=%v", what, lines[len(lines)-1], last.Correct, err)
	}
}

func TestGateFiresOnTamperedReference(t *testing.T) {
	snap, err := bench.Load("../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference("../BENCH_baseline.json")
	if err != nil {
		t.Fatalf("recorded references disagree: %v", err)
	}
	up := func(x float64) float64 { return math.Nextafter(x, 1) }
	for name, tamper := range map[string]func(r *reference){
		"vgg16":    func(r *reference) { r.Nets["vgg16"] = up(r.Nets["vgg16"]) },
		"bucket 8": func(r *reference) { r.Buckets["8"] = up(r.Buckets["8"]) },
	} {
		bad, err := loadReference("../BENCH_baseline.json")
		if err != nil {
			t.Fatal(err)
		}
		tamper(bad)
		if ps := bad.check(snap); len(ps) == 0 {
			t.Errorf("tampered %s: gate passed", name)
		}
	}

	// A measured run one ulp off its reference fails the run.
	rep := newReport()
	res := &infer.Result{Seconds: up(ref.Nets["vgg16"])}
	if checkRun(rep, "replay", res, ref.Nets["vgg16"], nil, false) {
		t.Error("a run one ulp off the reference passed checkRun")
	}
	failsRun(t, "one ulp off", rep)
}

func TestGateFiresOnBadServingResponses(t *testing.T) {
	ref, err := loadReference("../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	warm := map[int]float64{8: ref.Buckets["8"]}
	good := sample{resp: &serve.Response{Bucket: 8, Batch: 8, MachineMs: warm[8] * 1e3}}
	rep := newReport()
	if st := judge(rep, "good", []sample{good}, warm); len(rep.problems) != 0 || st.failed != 0 {
		t.Fatalf("a correct response failed the gate: %v", rep.problems)
	}
	degraded := good
	degraded.resp = &serve.Response{Bucket: 8, Batch: 8, MachineMs: warm[8] * 1e3, Degraded: true}
	offBits := good
	offBits.resp = &serve.Response{Bucket: 8, Batch: 8, MachineMs: math.Nextafter(warm[8]*1e3, 1)}
	for name, s := range map[string]sample{
		"degraded": degraded,
		"shed":     {err: serve.ErrShed},
		"expired":  {err: serve.ErrDeadline},
		"errored":  {err: errors.New("boom")},
		"one ulp":  offBits,
	} {
		rep := newReport()
		judge(rep, name, []sample{good, s}, warm)
		failsRun(t, name, rep)
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		rep := newReport()
		rep.attempted = 3
		for i, d := range defs {
			rep.metrics[d.name] = float64(i) + 0.5
		}
		var out bytes.Buffer
		if code := emit(&out, config{trace: traced}, rep); code != 0 {
			t.Fatalf("trace=%v: exit %d:\n%s", traced, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		keys := sortedKeys(last)
		if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("trace=%v: keys %v", traced, keys)
		}
		var m map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(last["metrics"], &m); err != nil {
			t.Fatal(err)
		}
		if len(m) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", traced, len(m), len(defs))
		}
		for i, d := range defs {
			if got := m[d.name]; got.Unit != d.unit || got.Value != float64(i)+0.5 {
				t.Errorf("trace=%v: %s = %+v", traced, d.name, got)
			}
		}
	}
}

func TestGateFiresWhenProbeAndEngineDisagree(t *testing.T) {
	g := &graph.Graph{Name: "net"}
	p := programProbe{chosen: map[string]string{"net/c1": "implicit s1"}}
	same := &infer.Result{Layers: []infer.Layer{{Name: "c1", Kind: graph.Conv, Strategy: "implicit s1"}}}
	rep := newReport()
	p.checkChoices(rep, "same", g, same)
	if len(rep.problems) != 0 {
		t.Fatalf("matching choices failed the gate: %v", rep.problems)
	}
	for name, res := range map[string]*infer.Result{
		"other method": {Layers: []infer.Layer{{Name: "c1", Kind: graph.Conv, Strategy: "explicit s1"}}},
		"no overlap":   {Layers: []infer.Layer{{Name: "c2", Kind: graph.Conv, Strategy: "implicit s1"}}},
	} {
		rep := newReport()
		p.checkChoices(rep, name, g, res)
		failsRun(t, name, rep)
	}
}
