package infer

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"swatop/internal/cache"
	"swatop/internal/graph"
	"swatop/internal/workloads"
)

// convBuilder is the tiny net's convolution head without its fc tail: a
// fleet run over it takes the plain data-parallel path.
func convBuilder(batch int) (*graph.Graph, error) {
	return graph.Chain("convnet", batch,
		[]workloads.ConvLayer{
			{Net: "convnet", Name: "c1", Ni: 3, No: 16, R: 8, K: 3},
			{Net: "convnet", Name: "c2", Ni: 16, No: 16, R: 8, K: 3},
			{Net: "convnet", Name: "c3", Ni: 16, No: 16, R: 4, K: 3},
		}, nil)
}

// goldenRow flattens one group's share of a fleet run into bit patterns:
// its seconds and batch, then every counter (float counters as
// Float64bits).
func goldenRow(gr GroupResult) [13]uint64 {
	c := gr.Counters
	return [13]uint64{
		math.Float64bits(gr.Seconds), uint64(gr.Batch),
		uint64(c.DMAOps), uint64(c.DMABlocks), uint64(c.DMABytesRequested),
		uint64(c.DMABytesTouched), uint64(c.DMATransactions), uint64(c.GemmCalls),
		uint64(c.Flops), uint64(c.TransformOps), uint64(c.SPMPeakBytes),
		math.Float64bits(c.ComputeSeconds), math.Float64bits(c.StallSeconds),
	}
}

// fleetGolden pins timed-only fleet runs bit for bit: the network and comm
// seconds, then one goldenRow per group. The tiny net takes the hybrid
// split (batch-sharded convs, column-sharded fc tail); convnet takes plain
// data parallelism. Batch 2 on three or four groups leaves zero shards.
var fleetGolden = map[string]struct {
	secs, comm uint64
	groups     [][13]uint64
}{
	"tiny/g2/b2": {0x3f277858967ede35, 0x3eced7235b591e56, [][13]uint64{
		{0x3f26fcf00eccbd0a, 1, 205, 10202, 201664, 1339648, 10466, 55, 265216, 41, 800, 0x3f016d27938e9c08, 0x3f22a1a629e915b0},
		{0x3f26fcfc091179bc, 1, 205, 10202, 201120, 1339648, 10466, 55, 264704, 41, 800, 0x3f016d26d5fc70ec, 0x3f22a1b253925d29},
	}},
	"tiny/g2/b8": {0x3f28a5a3546e3a5a, 0x3ed061dd5193d4e2, [][13]uint64{
		{0x3f28229469e19bb3, 4, 205, 10456, 549376, 1501184, 11728, 55, 1060864, 41, 832, 0x3f059ed5b762073a, 0x3f22badefc09197d},
		{0x3f280040795c8594, 4, 205, 10393, 548736, 1493120, 11665, 55, 1058816, 41, 832, 0x3f059ed2c1195ac9, 0x3f22988bc9162e7a},
	}},
	"tiny/g3/b2": {0x3f27f130547bebfb, 0x3ede850a24b6b1c3, [][13]uint64{
		{0x3f26fd080356366d, 1, 205, 10202, 200064, 1339648, 10466, 55, 263680, 41, 800, 0x3f016d26186a45d0, 0x3f22a1be7d3ba4a1},
		{0x3f26fd080356366d, 1, 205, 10202, 200064, 1339648, 10466, 55, 263680, 41, 800, 0x3f016d26186a45d0, 0x3f22a1be7d3ba4a1},
		{0x3ee16137c2497f63, 0, 6, 258, 3424, 33024, 258, 2, 2560, 3, 64, 0x3ec02e7c6d7698ee, 0x3edaab314dd7b250},
	}},
	"tiny/g3/b8": {0x3f29531f80b0c4b7, 0x3edf7b55c89df77a, [][13]uint64{
		{0x3f2856e7d0a49343, 3, 205, 10393, 432768, 1514624, 11833, 55, 794624, 41, 800, 0x3f04408374568ed5, 0x3f2346c6f38eef23},
		{0x3f2856e7d0a49343, 3, 205, 10393, 432768, 1514624, 11833, 55, 794624, 41, 800, 0x3f04408374568ed5, 0x3f2346c6f38eef23},
		{0x3f2744803440dce2, 2, 205, 10201, 316544, 1375360, 10745, 55, 530432, 41, 800, 0x3f02c07defa92dd1, 0x3f229460b856911c},
	}},
	"tiny/g4/b2": {0x3f28696eef32269b, 0x3ee6cf414de06a2e, [][13]uint64{
		{0x3f26fc7ada541ff8, 1, 205, 10202, 199008, 1339648, 10466, 55, 262656, 41, 800, 0x3f016ac0cdbcce1f, 0x3f22a1caa6e4ec19},
		{0x3f26fc7ada541ff8, 1, 205, 10202, 199008, 1339648, 10466, 55, 262656, 41, 800, 0x3f016ac0cdbcce1f, 0x3f22a1caa6e4ec19},
		{0x3ee16137c2497f63, 0, 6, 258, 3424, 33024, 258, 2, 2560, 3, 64, 0x3ec02e7c6d7698ee, 0x3edaab314dd7b250},
		{0x3ed32c586315791a, 0, 3, 129, 2624, 16512, 129, 1, 2048, 2, 64, 0x3eb75e095af85dde, 0x3ecaa9ac18aec345},
	}},
	"tiny/g4/b8": {0x3f28b926a63e1db3, 0x3ee74a671fd40d0a, [][13]uint64{
		{0x3f2744803440dce2, 2, 205, 10201, 316544, 1375360, 10745, 55, 530432, 41, 800, 0x3f02c07defa92dd1, 0x3f229460b856911c},
		{0x3f2744803440dce2, 2, 205, 10201, 316544, 1375360, 10745, 55, 530432, 41, 800, 0x3f02c07defa92dd1, 0x3f229460b856911c},
		{0x3f2744803440dce2, 2, 205, 10201, 316544, 1375360, 10745, 55, 530432, 41, 800, 0x3f02c07defa92dd1, 0x3f229460b856911c},
		{0x3f26c96c7b8ce662, 2, 202, 10072, 314880, 1358848, 10616, 54, 528384, 40, 800, 0x3f027e68811a0448, 0x3f2229d25b466500},
	}},
	"convnet/g2/b2": {0x3f25e9d315cba1da, 0x3eb72c6045eb9bd9, [][13]uint64{
		{0x3f25bb7a553fcaa2, 1, 199, 9944, 195584, 1306624, 10208, 53, 260096, 36, 800, 0x3eff7849c64cde3d, 0x3f21cc711c762e88},
		{0x3f25bb7a553fcaa2, 1, 199, 9944, 195584, 1306624, 10208, 53, 260096, 36, 800, 0x3eff7849c64cde3d, 0x3f21cc711c762e88},
	}},
	"convnet/g2/b8": {0x3f26d8458a5c55f0, 0x3ec025cf9dc2f281, [][13]uint64{
		{0x3f2697ae4be54a26, 4, 199, 10072, 540416, 1452032, 11344, 53, 1040384, 36, 832, 0x3f03d8c48a608b04, 0x3f21a17d294d2702},
		{0x3f2697ae4be54a26, 4, 199, 10072, 540416, 1452032, 11344, 53, 1040384, 36, 832, 0x3f03d8c48a608b04, 0x3f21a17d294d2702},
	}},
	"convnet/g3/b2": {0x3f25e9d315cba1da, 0x3eb72c6045eb9bd9, [][13]uint64{
		{0x3f25bb7a553fcaa2, 1, 199, 9944, 195584, 1306624, 10208, 53, 260096, 36, 800, 0x3eff7849c64cde3d, 0x3f21cc711c762e88},
		{0x3f25bb7a553fcaa2, 1, 199, 9944, 195584, 1306624, 10208, 53, 260096, 36, 800, 0x3eff7849c64cde3d, 0x3f21cc711c762e88},
		{0x0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0, 0x0},
	}},
	"convnet/g3/b8": {0x3f2759daa8264c17, 0x3eca36ca97c9b43c, [][13]uint64{
		{0x3f26f0ff7dc72546, 3, 199, 10072, 425472, 1473536, 11512, 53, 780288, 36, 800, 0x3f02851ca804f4d5, 0x3f224fb853c5e7ab},
		{0x3f26f0ff7dc72546, 3, 199, 10072, 425472, 1473536, 11512, 53, 780288, 36, 800, 0x3f02851ca804f4d5, 0x3f224fb853c5e7ab},
		{0x3f25e0e3fca3cf82, 2, 199, 9880, 310528, 1334272, 10424, 53, 520192, 36, 800, 0x3f010fccc582054d, 0x3f219cf0cb434de1},
	}},
	"convnet/g4/b2": {0x3f25e9d315cba1da, 0x3eb72c6045eb9bd9, [][13]uint64{
		{0x3f25bb7a553fcaa2, 1, 199, 9944, 195584, 1306624, 10208, 53, 260096, 36, 800, 0x3eff7849c64cde3d, 0x3f21cc711c762e88},
		{0x3f25bb7a553fcaa2, 1, 199, 9944, 195584, 1306624, 10208, 53, 260096, 36, 800, 0x3eff7849c64cde3d, 0x3f21cc711c762e88},
		{0x0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0, 0x0},
		{0x0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0, 0x0},
	}},
	"convnet/g4/b8": {0x3f26720312eb115a, 0x3ed223e2c8e83afb, [][13]uint64{
		{0x3f25e0e3fca3cf82, 2, 199, 9880, 310528, 1334272, 10424, 53, 520192, 36, 800, 0x3f010fccc582054d, 0x3f219cf0cb434de1},
		{0x3f25e0e3fca3cf82, 2, 199, 9880, 310528, 1334272, 10424, 53, 520192, 36, 800, 0x3f010fccc582054d, 0x3f219cf0cb434de1},
		{0x3f25e0e3fca3cf82, 2, 199, 9880, 310528, 1334272, 10424, 53, 520192, 36, 800, 0x3f010fccc582054d, 0x3f219cf0cb434de1},
		{0x3f25e0e3fca3cf82, 2, 199, 9880, 310528, 1334272, 10424, 53, 520192, 36, 800, 0x3f010fccc582054d, 0x3f219cf0cb434de1},
	}},
}

// fleetGoldenFunctional pins one functional run per fleet path: the
// network seconds and the first and last output values.
var fleetGoldenFunctional = map[string][3]uint64{
	"tiny/g4/b2":    {0x3f28698e6922efe6, 0xb22dd799, 0xb2b29e09},
	"convnet/g3/b2": {0x3f25e9f28fbc6b25, 0x37816a3a, 0x3758d3e0},
}

// TestFleetGolden keeps every fleet number bit-identical to the recorded
// values on both fleet paths. Runs share one library, so each shape tunes
// once and later cases replay it.
func TestFleetGolden(t *testing.T) {
	e := newEngine(t)
	lib := cache.NewLibrary()
	ctx := context.Background()
	builders := map[string]func(int) (*graph.Graph, error){"tiny": tinyBuilder, "convnet": convBuilder}
	run := func(key string, functional bool) *Result {
		t.Helper()
		var name string
		var G, B int
		if _, err := fmt.Sscanf(strings.ReplaceAll(key, "/", " "), "%s g%d b%d", &name, &G, &B); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		g, err := builders[name](B)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(ctx, g, Options{
			Workers: 2, Library: lib, Groups: G, Builder: builders[name], Functional: functional,
		})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return res
	}
	keys := make([]string, 0, len(fleetGolden))
	for k := range fleetGolden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want := fleetGolden[key]
		res := run(key, false)
		if got := math.Float64bits(res.Seconds); got != want.secs {
			t.Errorf("%s: seconds %#x (%v), want %#x", key, got, res.Seconds, want.secs)
		}
		if got := math.Float64bits(res.CommSeconds); got != want.comm {
			t.Errorf("%s: comm seconds %#x (%v), want %#x", key, got, res.CommSeconds, want.comm)
		}
		if len(res.Groups) != len(want.groups) {
			t.Fatalf("%s: %d group rows, want %d", key, len(res.Groups), len(want.groups))
		}
		for i, gr := range res.Groups {
			if got := goldenRow(gr); got != want.groups[i] {
				t.Errorf("%s: group %d\n got  %#x\n want %#x", key, i, got, want.groups[i])
			}
		}
	}
	for key, want := range fleetGoldenFunctional {
		res := run(key, true)
		out := res.Output
		got := [3]uint64{math.Float64bits(res.Seconds),
			uint64(math.Float32bits(atFlat(out, 0))), uint64(math.Float32bits(atFlat(out, out.Len()-1)))}
		if got != want {
			t.Errorf("%s functional: seconds/first/last %#x, want %#x", key, got, want)
		}
	}
}
