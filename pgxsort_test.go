package pgxsort

import (
	"context"
	"testing"

	"pgxsort/internal/dist"
)

func TestSortOneShot(t *testing.T) {
	keys := dist.Gen{Kind: dist.Normal, Seed: 1}.Keys(20000)
	sorted, report, err := Sort(keys, Options{Procs: 4, WorkersPerProc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != len(keys) {
		t.Fatalf("lost keys: %d != %d", len(sorted), len(keys))
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if report.N != len(keys) || report.Total <= 0 {
		t.Fatalf("report = %+v", report)
	}
}

func TestSortZeroOptions(t *testing.T) {
	sorted, _, err := Sort([]uint64{3, 1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sorted[0] != 1 || sorted[1] != 2 || sorted[2] != 3 {
		t.Fatalf("sorted = %v", sorted)
	}
}

func TestSortOverHardenedTCP(t *testing.T) {
	// The public wiring of the hardened transport: explicit (loopback)
	// addresses and tight windows through Options, under a burst of resets
	// that starts after the first 10 frames (sampling, splitters, range
	// metadata).
	const burst = 5
	armResets(t, 15, burst)
	keys := dist.Gen{Kind: dist.Uniform, Seed: 9}.Keys(30000)
	sorted, report, err := Sort(keys, Options{
		Procs:       3,
		Transport:   TransportTCP,
		BufferBytes: 8192,
		TCP: TransportConfig{
			Listen:       []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"},
			WindowFrames: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatalf("not sorted at %d", i)
		}
	}
	if report.Reconnects == 0 {
		t.Error("expected reconnects under the reset schedule")
	}
	requireResetsFired(t, burst)
}

func TestSortDistributed(t *testing.T) {
	parts := [][]uint64{{5, 1}, {4, 4}, {2}}
	res, err := SortDistributed(parts, Options{WorkersPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
	if res.Report.Procs != 3 {
		t.Fatalf("procs = %d, want 3 (from part count)", res.Report.Procs)
	}
}

func TestClusterReuse(t *testing.T) {
	c, err := NewCluster[uint64](Options{Procs: 4, WorkersPerProc: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		keys := dist.Gen{Kind: dist.Uniform, Seed: uint64(i)}.Keys(5000)
		res, err := c.SortSlice(keys)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 5000 {
			t.Fatalf("round %d: len = %d", i, res.Len())
		}
	}
}

func TestSortManyWithFacade(t *testing.T) {
	c, err := NewCluster[uint64](Options{Procs: 4, WorkersPerProc: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	datasets := make([][][]uint64, 3)
	for d := range datasets {
		parts := make([][]uint64, 4)
		for i := range parts {
			parts[i] = dist.Gen{Kind: dist.Kinds[d], Seed: uint64(10*d + i)}.Keys(2000)
		}
		datasets[d] = parts
	}
	results, err := c.SortManyWith(context.Background(),
		SortManyOpts{MaxInflight: 2}, datasets...)
	if err != nil {
		t.Fatal(err)
	}
	for d, res := range results {
		if err := res.Verify(datasets[d]); err != nil {
			t.Fatalf("dataset %d: %v", d, err)
		}
		if !res.Report.Sched.Pipelined {
			t.Fatalf("dataset %d: scheduler trace missing", d)
		}
		if res.Report.Sched.StageEnd[StageExchange] == 0 {
			t.Fatalf("dataset %d: exchange span not recorded", d)
		}
	}
}

func TestInt64AndFloat64Keys(t *testing.T) {
	ci, err := NewCluster[int64](Options{Procs: 2, WorkersPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ci.Close()
	res, err := ci.SortSlice([]int64{5, -3, 0, -100, 42})
	if err != nil {
		t.Fatal(err)
	}
	keys := res.Keys()
	want := []int64{-100, -3, 0, 5, 42}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("int64 sorted = %v", keys)
		}
	}

	cf, err := NewCluster[float64](Options{Procs: 2, WorkersPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	resF, err := cf.SortSlice([]float64{2.5, -1.25, 0.0, 3.75})
	if err != nil {
		t.Fatal(err)
	}
	fkeys := resF.Keys()
	wantF := []float64{-1.25, 0.0, 2.5, 3.75}
	for i := range wantF {
		if fkeys[i] != wantF[i] {
			t.Fatalf("float64 sorted = %v", fkeys)
		}
	}
}

func TestCodecForUnsupported(t *testing.T) {
	if _, err := CodecFor[int32](); err == nil {
		t.Fatal("CodecFor[int32] should require an explicit codec")
	}
	if _, err := NewCluster[int32](Options{Procs: 2}); err == nil {
		t.Fatal("NewCluster[int32] without codec should fail")
	}
}

func TestTCPCluster(t *testing.T) {
	c, err := NewCluster[uint64](Options{Procs: 2, WorkersPerProc: 1, Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.SortSlice(dist.Gen{Kind: dist.Exponential, Seed: 2}.Keys(3000))
	if err != nil {
		t.Fatal(err)
	}
	keys := res.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatal("tcp sort not sorted")
		}
	}
}

func TestResultAPIViaFacade(t *testing.T) {
	parts := [][]uint64{{10, 30}, {20, 20}}
	res, err := SortDistributed(parts, Options{WorkersPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, found := res.Search(20); !found {
		t.Error("Search(20) failed")
	}
	if top := res.Top(1); len(top) != 1 || top[0].Key != 30 {
		t.Errorf("Top(1) = %v", top)
	}
	if c := res.Count(20); c != 2 {
		t.Errorf("Count(20) = %d", c)
	}
	// Origin of the largest key: input part 0, index 1.
	top := res.Top(1)[0]
	if top.Proc != 0 || top.Index != 1 {
		t.Errorf("Top origin = (%d,%d), want (0,1)", top.Proc, top.Index)
	}
}

func TestTopKFacade(t *testing.T) {
	keys := dist.Gen{Kind: dist.Uniform, Seed: 8}.Keys(10000)
	top, err := TopK(keys, 5, Options{Procs: 4, WorkersPerProc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Entries) != 5 {
		t.Fatalf("got %d entries", len(top.Entries))
	}
	sorted, _, err := Sort(keys, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if top.Entries[i].Key != sorted[len(sorted)-1-i] {
			t.Fatalf("TopK[%d] = %d, want %d", i, top.Entries[i].Key, sorted[len(sorted)-1-i])
		}
	}
}

func TestQuantilesFacade(t *testing.T) {
	res, err := SortDistributed([][]uint64{{4, 2}, {3, 1}}, Options{WorkersPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := res.Quantiles(2)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] != 1 || qs[2] != 4 {
		t.Fatalf("quantiles = %v", qs)
	}
}
