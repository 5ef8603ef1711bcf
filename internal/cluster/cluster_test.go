package cluster

import (
	"testing"

	"swatop/internal/metrics"
	"swatop/internal/sw26010"
)

func TestNewFleet(t *testing.T) {
	f, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Fatalf("size = %d", f.Size())
	}
	seen := map[*sw26010.Machine]bool{}
	for i := 0; i < 4; i++ {
		m := f.Machine(i)
		if m == nil || seen[m] {
			t.Fatalf("group %d: machine nil or shared", i)
		}
		seen[m] = true
		if m.Now() != 0 {
			t.Fatalf("group %d starts at %g", i, m.Now())
		}
	}
	if _, err := New(0); err == nil {
		t.Fatal("fleet of size 0 must error")
	}
}

func TestShardBatch(t *testing.T) {
	cases := []struct {
		b, n int
		want []int
	}{
		{8, 4, []int{2, 2, 2, 2}},
		{8, 3, []int{3, 3, 2}},
		{7, 2, []int{4, 3}},
		{4, 4, []int{1, 1, 1, 1}},
		{5, 1, []int{5}},
		// batch < groups: trailing shards are zero (skipped, not executed),
		// never silently redistributed.
		{3, 4, []int{1, 1, 1, 0}},
		{1, 4, []int{1, 0, 0, 0}},
		{2, 3, []int{1, 1, 0}},
	}
	for _, c := range cases {
		got, err := ShardBatch(c.b, c.n)
		if err != nil {
			t.Fatalf("ShardBatch(%d,%d): %v", c.b, c.n, err)
		}
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != c.want[i] {
				t.Fatalf("ShardBatch(%d,%d) = %v, want %v", c.b, c.n, got, c.want)
			}
		}
		if sum != c.b {
			t.Fatalf("shards %v do not sum to %d", got, c.b)
		}
	}
	if _, err := ShardBatch(0, 4); err == nil {
		t.Fatal("batch 0 must error: there are no samples to distribute")
	}
	if _, err := ShardBatch(4, 0); err == nil {
		t.Fatal("zero groups must error")
	}
}

func TestCommCostModels(t *testing.T) {
	if GatherSeconds(0, 1) != 0 {
		t.Fatal("single group gather must be free")
	}
	g2 := GatherSeconds(1<<20, 2)
	g4 := GatherSeconds(1<<20, 4)
	if g2 <= 0 || g4 <= g2 {
		t.Fatalf("gather not monotone in groups: %g vs %g", g2, g4)
	}
	big := GatherSeconds(1<<24, 4)
	if big <= g4 {
		t.Fatalf("gather not monotone in bytes: %g vs %g", big, g4)
	}
	if AllGatherSeconds(1<<20, 1) != 0 {
		t.Fatal("single group all-gather must be free")
	}
	ag4 := AllGatherSeconds(1<<20, 4)
	if ag4 <= 0 || ag4 <= AllGatherSeconds(1<<20, 2) {
		t.Fatalf("all-gather not monotone in groups: %g", ag4)
	}
	if AllGatherSeconds(1<<24, 4) <= ag4 {
		t.Fatal("all-gather not monotone in bytes")
	}
	// Moving the full buffer once per group vs the lead group pulling the
	// remote shards: same bytes on the bottleneck path, same sync count.
	if ag4 != GatherSeconds(1<<20, 4) {
		t.Fatalf("all-gather %g != gather %g of the same buffer", ag4, GatherSeconds(1<<20, 4))
	}
	if AllGatherSeconds(0, 4) != 3*GroupSyncSeconds {
		t.Fatal("empty all-gather must still synchronize")
	}
}

func TestFleetPublish(t *testing.T) {
	f, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m := f.Machine(i)
		req := sw26010.DMARequest{BlockBytes: 128, BlockCount: i + 1, StrideBytes: 256, CPEs: sw26010.NumCPE}
		if err := m.IssueDMA("r", req); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitDMA("r", 1); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	f.Publish(reg)
	s := reg.Snapshot()
	g0 := s.Gauges["group0_machine_dma_blocks_total"]
	g1 := s.Gauges["group1_machine_dma_blocks_total"]
	if g0 <= 0 || g1 <= 0 || g0 == g1 {
		t.Fatalf("per-group gauges wrong: %g, %g", g0, g1)
	}
	if got := s.Gauges["machine_dma_blocks_total"]; got != g0+g1 {
		t.Fatalf("aggregate %g != %g + %g", got, g0, g1)
	}
	if got := s.Gauges["fleet_groups"]; got != 2 {
		t.Fatalf("fleet_groups = %g", got)
	}
	f.Publish(nil) // no-op
}
