// Command swinfer runs end-to-end network inference on the simulated
// SW26010 core group: it builds the network graph (VGG16, ResNet or YOLO),
// resolves a tuned schedule for every convolution and fully-connected
// layer (through a schedule library when -lib is given), executes all
// layers as one serialized machine timeline and reports per-layer and
// total simulated seconds against the manual-library baseline.
//
// Usage:
//
//	swinfer [-net vgg16] [-batch 1,32,128] [-workers N] [-json]
//	        [-groups N]
//	        [-lib schedules.json] [-fallback] [-verify] [-timeline]
//	        [-metrics -|file] [-trace-out trace.json] [-listen addr]
//
// -groups N scales the run out across a fleet of N simulated core groups
// (the SW26010 ships 4 per node): the batch is sharded across the groups
// and weight-bound fully-connected tails are column-sharded. The report
// then carries the per-group breakdown.
//
// The reported machine seconds are deterministic: identical for every
// -workers value, every -groups goroutine interleaving, and identical
// between cached and freshly-tuned runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"swatop"
	"swatop/internal/cliobs"
	"swatop/internal/report"
)

func main() {
	net := flag.String("net", "vgg16", "network: vgg16, resnet or yolo")
	batches := flag.String("batch", "1", "comma-separated batch sizes")
	workers := flag.Int("workers", runtime.NumCPU(),
		"concurrent tuning workers (machine seconds are worker-count independent)")
	jsonOut := flag.Bool("json", false, "emit one JSON document instead of tables")
	libPath := flag.String("lib", "", "schedule library file: loaded if present, saved after tuning")
	fallback := flag.Bool("fallback", false, "degrade failed layer tuning to the manual baseline schedule")
	verify := flag.Bool("verify", false, "functional execution: check every tuned layer against the reference oracle (slow)")
	timeline := flag.Bool("timeline", false, "print the merged network timeline per batch size")
	groups := flag.Int("groups", 1, "simulated core groups: >1 scales inference out across a fleet")
	retries := flag.Int("retries", 1, "total attempts per candidate measurement for transient errors")
	obsFlags := cliobs.Register(flag.CommandLine,
		"write the network timeline as Chrome trace-event JSON (opens in ui.perfetto.dev); with several batch sizes each gets a -b<N> suffix")
	flag.Parse()

	sizes, err := parseBatches(*batches)
	if err != nil {
		fail(err)
	}

	eng, err := swatop.NewEngine()
	if err != nil {
		fail(err)
	}
	eng.SetWorkers(*workers)
	if *groups > 1 {
		eng.SetGroups(*groups)
	}
	if *fallback {
		eng.SetFallback(swatop.FallbackBaseline)
	}
	if *verify {
		eng.SetVerify(0)
	}
	if *retries > 1 {
		eng.SetRetry(*retries, 0, 0)
	}

	var lib *swatop.Library
	if *libPath != "" {
		lib = swatop.NewLibrary()
		if _, err := os.Stat(*libPath); err == nil {
			if err := lib.Load(*libPath); err != nil {
				fail(fmt.Errorf("load %s: %w", *libPath, err))
			}
		}
		eng.UseLibrary(lib)
	}
	reg := swatop.NewMetricsRegistry()
	eng.SetMetrics(reg)
	sess, err := obsFlags.Start("swinfer", reg)
	if err != nil {
		fail(err)
	}
	defer sess.Close()
	eng.SetObserver(sess.Observer)

	var reports []*swatop.NetReport
	for _, b := range sizes {
		stop := sess.StartProgress(os.Stderr)
		// The session context makes SIGTERM/SIGINT drain the run: the
		// current batch stops at its next cancellation point.
		rep, err := eng.InferCtx(sess.Context(), *net, b)
		stop()
		if err != nil {
			fail(err)
		}
		reports = append(reports, rep)
		if obsFlags.TraceOut != "" {
			path := obsFlags.TraceOut
			if len(sizes) > 1 {
				path = batchSuffixed(path, b)
			}
			if err := cliobs.WriteTrace(path, func(w io.Writer) error {
				return rep.WriteChromeTrace(w)
			}); err != nil {
				fail(err)
			}
		}
	}
	if lib != nil {
		if err := lib.Save(*libPath); err != nil {
			fail(fmt.Errorf("save %s: %w", *libPath, err))
		}
	}
	if *jsonOut {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
	} else {
		for _, rep := range reports {
			fmt.Println(layerTable(rep).String())
			fmt.Println(summaryLine(rep))
			if len(rep.Groups) > 0 {
				fmt.Println(fleetSummary(rep))
			}
			fmt.Println()
		}
	}
	if *timeline {
		for _, rep := range reports {
			fmt.Printf("--- %s batch %d timeline ---\n%s\n", rep.Net, rep.Batch, rep.Timeline())
		}
	}
	if err := sess.WriteMetrics(*jsonOut); err != nil {
		fail(err)
	}
}

func layerTable(rep *swatop.NetReport) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("%s inference, batch %d", rep.Net, rep.Batch),
		Headers: []string{"layer", "kind", "ms", "baseline ms", "GFLOPS", "schedule"},
	}
	for _, l := range rep.Layers {
		sched := l.Strategy
		switch {
		case l.Degraded:
			sched = "baseline fallback"
		case l.Cached:
			sched = "cached: " + sched
		}
		if len(sched) > 48 {
			sched = sched[:45] + "..."
		}
		gflops := ""
		if l.GFLOPS > 0 {
			gflops = fmt.Sprintf("%.1f", l.GFLOPS)
		}
		t.Rows = append(t.Rows, []string{
			l.Name,
			l.Kind,
			fmt.Sprintf("%.4f", l.Seconds*1e3),
			fmt.Sprintf("%.4f", l.BaselineSeconds*1e3),
			gflops,
			sched,
		})
	}
	return t
}

func summaryLine(rep *swatop.NetReport) string {
	s := fmt.Sprintf("total %.3f ms, %.1f GFLOPS", rep.Seconds*1e3, rep.GFLOPS)
	if rep.Speedup > 0 {
		s += fmt.Sprintf(", speedup %.2fx vs manual library", rep.Speedup)
	}
	s += fmt.Sprintf("; activations %.1f MB (naive %.1f MB)",
		float64(rep.PeakActivationBytes)/1e6, float64(rep.NaiveActivationBytes)/1e6)
	if rep.CachedLayers > 0 || rep.DegradedLayers > 0 {
		s += fmt.Sprintf(" [%d tuned, %d cached, %d degraded]",
			rep.TunedLayers, rep.CachedLayers, rep.DegradedLayers)
	}
	if rep.InferencesPerSec > 0 {
		s += fmt.Sprintf("; %.1f inferences/s", rep.InferencesPerSec)
	}
	return s
}

// fleetSummary renders the per-group breakdown of a fleet run.
func fleetSummary(rep *swatop.NetReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: mode %s, %d groups, comm %.4f ms\n",
		rep.Mode, len(rep.Groups), rep.CommSeconds*1e3)
	for _, g := range rep.Groups {
		fmt.Fprintf(&b, "  group%d: batch %d, %.3f ms\n", g.Group, g.Batch, g.Seconds*1e3)
	}
	return strings.TrimRight(b.String(), "\n")
}

// batchSuffixed inserts "-b<batch>" before the extension, so
// trace.json with batches 1,32 yields trace-b1.json and trace-b32.json.
func batchSuffixed(path string, batch int) string {
	ext := ""
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		path, ext = path[:i], path[i:]
	}
	return fmt.Sprintf("%s-b%d%s", path, batch, ext)
}

func parseBatches(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad batch size %q (batch must be a positive integer; -groups shards it, so batch 0 cannot be sharded)", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("swinfer: no batch sizes in %q", s)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "swinfer:", err)
	os.Exit(1)
}
