package spark

import (
	"testing"
	"testing/quick"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
)

func newCtx(t testing.TB, parts int) *Context {
	t.Helper()
	return NewContext(Config{Partitions: parts, Seed: 1})
}

func TestSortByKeyAllDistributions(t *testing.T) {
	for _, kind := range dist.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			sc := newCtx(t, 4)
			data := dist.Gen{Kind: kind, Seed: 11}.Keys(20000)
			in := Parallelize(sc, data)
			out, rep := SortByKey(in, comm.U64Codec{})
			if err := Verify(in, out); err != nil {
				t.Fatal(err)
			}
			if rep.N != 20000 {
				t.Errorf("report N = %d", rep.N)
			}
		})
	}
}

func TestSortByKeyEmpty(t *testing.T) {
	sc := newCtx(t, 4)
	in := Parallelize(sc, []uint64{})
	out, _ := SortByKey(in, comm.U64Codec{})
	if err := Verify(in, out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("sorted empty input has %d elements", out.Len())
	}
}

func TestSortByKeyTiny(t *testing.T) {
	sc := newCtx(t, 4)
	in := Parallelize(sc, []uint64{3, 1, 2})
	out, _ := SortByKey(in, comm.U64Codec{})
	if err := Verify(in, out); err != nil {
		t.Fatal(err)
	}
	var flat []uint64
	for _, p := range out.Parts() {
		flat = append(flat, p...)
	}
	for i, want := range []uint64{1, 2, 3} {
		if flat[i] != want {
			t.Fatalf("flat = %v", flat)
		}
	}
}

func TestFromParts(t *testing.T) {
	sc := newCtx(t, 2)
	if _, err := FromParts(sc, [][]uint64{{1}}); err == nil {
		t.Fatal("FromParts accepted wrong part count")
	}
	rdd, err := FromParts(sc, [][]uint64{{3, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := SortByKey(rdd, comm.U64Codec{})
	if err := Verify(rdd, out); err != nil {
		t.Fatal(err)
	}
}

func TestReportStages(t *testing.T) {
	sc := newCtx(t, 4)
	data := dist.Gen{Kind: dist.Uniform, Seed: 3}.Keys(50000)
	in := Parallelize(sc, data)
	_, rep := SortByKey(in, comm.U64Codec{})
	if rep.SampleStage <= 0 || rep.MapStage <= 0 || rep.ReduceStage <= 0 {
		t.Errorf("stage durations missing: %+v", rep)
	}
	if rep.Total < rep.SampleStage {
		t.Error("total smaller than a stage")
	}
	if rep.ShuffleBytes != int64(len(data))*16 {
		t.Errorf("shuffle bytes = %d, want %d (16 per key-value record)",
			rep.ShuffleBytes, len(data)*16)
	}
	if rep.SampledKeys == 0 {
		t.Error("no samples collected")
	}
	if rep.TempPeakBytes == 0 {
		t.Error("shuffle block memory not tracked")
	}
	sum := 0
	for _, s := range rep.PartSizes {
		sum += s
	}
	if sum != rep.N {
		t.Errorf("part sizes sum %d != %d", sum, rep.N)
	}
	if rep.LoadImbalance() < 1 {
		t.Errorf("imbalance = %v < 1", rep.LoadImbalance())
	}
}

func TestUniformBalance(t *testing.T) {
	sc := newCtx(t, 8)
	data := dist.Gen{Kind: dist.Uniform, Seed: 9}.Keys(200000)
	in := Parallelize(sc, data)
	_, rep := SortByKey(in, comm.U64Codec{})
	if imb := rep.LoadImbalance(); imb > 1.5 {
		t.Errorf("uniform imbalance = %.3f, want <= 1.5", imb)
	}
}

// Spark's range partitioner has no investigator: on heavily duplicated
// inputs the output partitions are skewed. This is the behaviour the paper
// exploits in its comparison.
func TestDuplicateSkewImbalance(t *testing.T) {
	sc := newCtx(t, 8)
	data := dist.Gen{Kind: dist.RightSkewed, Seed: 5, Domain: 64}.Keys(100000)
	in := Parallelize(sc, data)
	out, rep := SortByKey(in, comm.U64Codec{})
	if err := Verify(in, out); err != nil {
		t.Fatal(err)
	}
	if imb := rep.LoadImbalance(); imb < 1.5 {
		t.Errorf("imbalance on duplicate-heavy input = %.3f, expected noticeable skew", imb)
	}
}

func TestPartitionFor(t *testing.T) {
	bounds := []uint64{10, 20, 30}
	cases := []struct {
		k    uint64
		want int
	}{
		{0, 0}, {10, 0}, {11, 1}, {20, 1}, {25, 2}, {30, 2}, {31, 3}, {99, 3},
	}
	for _, c := range cases {
		if got := partitionFor(c.k, bounds); got != c.want {
			t.Errorf("partitionFor(%d) = %d, want %d", c.k, got, c.want)
		}
	}
	if got := partitionFor(uint64(5), nil); got != 0 {
		t.Errorf("no bounds should map to partition 0, got %d", got)
	}
}

func TestReservoir(t *testing.T) {
	data := make([]uint64, 1000)
	for i := range data {
		data[i] = uint64(i)
	}
	s := reservoir(data, 100, 42)
	if len(s) != 100 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := map[uint64]bool{}
	for _, v := range s {
		if v >= 1000 {
			t.Fatalf("sample value %d not from input", v)
		}
		seen[v] = true
	}
	if len(seen) < 90 {
		t.Errorf("sample has only %d distinct values; replacement bug?", len(seen))
	}
	// Sample mean should be near the population mean (499.5).
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	mean := sum / 100
	if mean < 350 || mean > 650 {
		t.Errorf("sample mean %.1f implausible for uniform draw", mean)
	}
	if got := reservoir(data, 0, 1); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := reservoir(data[:5], 10, 1); len(got) != 5 {
		t.Errorf("k>n should clamp, got %d", len(got))
	}
}

func TestVerifyCatchesBadOutput(t *testing.T) {
	sc := newCtx(t, 2)
	in, err := FromParts(sc, [][]uint64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := FromParts(sc, [][]uint64{{2, 1}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if Verify(in, bad) == nil {
		t.Error("Verify missed unsorted partition")
	}
	bad2, _ := FromParts(sc, [][]uint64{{1, 2}, {3, 5}})
	if Verify(in, bad2) == nil {
		t.Error("Verify missed changed key")
	}
	bad3, _ := FromParts(sc, [][]uint64{{1}, {3}})
	if Verify(in, bad3) == nil {
		t.Error("Verify missed missing keys")
	}
}

func TestPropertySortByKey(t *testing.T) {
	sc := newCtx(t, 3)
	f := func(data []uint64) bool {
		in := Parallelize(sc, data)
		out, _ := SortByKey(in, comm.U64Codec{})
		return Verify(in, out) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
