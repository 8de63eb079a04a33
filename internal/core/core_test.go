package core

import (
	"testing"
	"testing/quick"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/sample"
	"pgxsort/internal/transport"
)

// mkParts deterministically generates per-processor inputs.
func mkParts(kind dist.Kind, procs, perProc int, seed uint64) [][]uint64 {
	parts := make([][]uint64, procs)
	for i := range parts {
		parts[i] = dist.Gen{Kind: kind, Seed: seed + uint64(i)*7919}.Keys(perProc)
	}
	return parts
}

func newTestEngine(t testing.TB, opts Options) *Engine[uint64] {
	t.Helper()
	e, err := NewEngine[uint64](opts, comm.U64Codec{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestSortAllDistributions(t *testing.T) {
	for _, kind := range dist.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
			parts := mkParts(kind, 4, 5000, 42)
			res, err := e.Sort(parts)
			if err != nil {
				t.Fatalf("Sort: %v", err)
			}
			if err := res.Verify(parts); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSortOverTCP(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 3, WorkersPerProc: 2, Transport: transport.KindTCP})
	parts := mkParts(dist.Exponential, 3, 4000, 7)
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
}

func TestSortSingleProc(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 1, WorkersPerProc: 2})
	parts := mkParts(dist.Uniform, 1, 3000, 3)
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
}

func TestSortEmptyAndTiny(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 1})
	// Entirely empty.
	res, err := e.Sort([][]uint64{{}, {}, {}, {}})
	if err != nil {
		t.Fatalf("empty sort: %v", err)
	}
	if res.Len() != 0 {
		t.Fatalf("empty sort produced %d entries", res.Len())
	}
	// Fewer keys than processors, unevenly placed.
	parts := [][]uint64{{5}, {}, {3, 1}, {}}
	res, err = e.Sort(parts)
	if err != nil {
		t.Fatalf("tiny sort: %v", err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
	keys := res.Keys()
	want := []uint64{1, 3, 5}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestSortSlice(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	data := dist.Gen{Kind: dist.Normal, Seed: 5}.Keys(10001)
	res, err := e.SortSlice(data)
	if err != nil {
		t.Fatalf("SortSlice: %v", err)
	}
	if res.Len() != len(data) {
		t.Fatalf("lost entries: %d != %d", res.Len(), len(data))
	}
	keys := res.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

// TestBlocks pins the one block distribution: contiguous, covering,
// part i = data[i·n/p : (i+1)·n/p] (10 keys over 4 → 2,3,2,3), aliasing
// the input.
func TestBlocks(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{0, 4}, {3, 4}, {10, 4}, {103, 4}, {16, 8}, {7, 1}} {
		data := make([]int, tc.n)
		for i := range data {
			data[i] = i
		}
		parts := Blocks(data, tc.p)
		if len(parts) != tc.p {
			t.Fatalf("n=%d p=%d: %d parts", tc.n, tc.p, len(parts))
		}
		next := 0
		for i, part := range parts {
			if want := (i+1)*tc.n/tc.p - i*tc.n/tc.p; len(part) != want {
				t.Fatalf("n=%d p=%d: part %d has %d, want %d", tc.n, tc.p, i, len(part), want)
			}
			for _, v := range part {
				if v != next {
					t.Fatalf("n=%d p=%d: part %d holds %d, want %d", tc.n, tc.p, i, v, next)
				}
				next++
			}
		}
		if next != tc.n {
			t.Fatalf("n=%d p=%d: covered %d", tc.n, tc.p, next)
		}
	}
	if got := Blocks(make([]int, 10), 4); len(got[0]) != 2 || len(got[1]) != 3 || len(got[2]) != 2 || len(got[3]) != 3 {
		t.Fatalf("10 over 4 split %d,%d,%d,%d, want 2,3,2,3", len(got[0]), len(got[1]), len(got[2]), len(got[3]))
	}
}

func TestSortWrongPartCount(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4})
	if _, err := e.Sort([][]uint64{{1}}); err == nil {
		t.Fatal("Sort accepted mismatched part count")
	}
}

func TestRepeatedSortsOnOneEngine(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 3, WorkersPerProc: 2})
	for round := 0; round < 5; round++ {
		parts := mkParts(dist.RightSkewed, 3, 2000, uint64(round))
		res, err := e.Sort(parts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := res.Verify(parts); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestSortMany(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	datasets := make([][][]uint64, 3)
	for d := range datasets {
		datasets[d] = mkParts(dist.Kinds[d%len(dist.Kinds)], 4, 3000, uint64(1000*d))
	}
	results, err := e.SortMany(datasets...)
	if err != nil {
		t.Fatalf("SortMany: %v", err)
	}
	for d, res := range results {
		if err := res.Verify(datasets[d]); err != nil {
			t.Fatalf("dataset %d: %v", d, err)
		}
	}
}

func TestGlobalOrderAcrossParts(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 8, WorkersPerProc: 1})
	parts := mkParts(dist.Uniform, 8, 4000, 11)
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Parts); i++ {
		a, b := res.Parts[i-1], res.Parts[i]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		if a[len(a)-1].Key > b[0].Key {
			t.Fatalf("part %d max %d > part %d min %d",
				i-1, a[len(a)-1].Key, i, b[0].Key)
		}
	}
}

// The paper's Table II claim: with splitters at exact ranks the load
// stays within sample.Epsilon of balanced on duplicate-heavy inputs, and
// cutting on keys alone skews it grossly.
func TestInvestigatorLoadBalance(t *testing.T) {
	const procs = 10
	const perProc = 10000
	parts := make([][]uint64, procs)
	for i := range parts {
		parts[i] = dist.Gen{Kind: dist.RightSkewed, Seed: uint64(i), Domain: 64}.Keys(perProc)
	}

	e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 1})
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
	s := res.Report.PerNode[0].SamplesSent
	if bound := 1 + sample.Epsilon(procs, s, perProc); res.Report.LoadImbalance() > bound {
		t.Errorf("exact-rank imbalance = %.4f, want <= 1+ε = %.4f (s=%d)", res.Report.LoadImbalance(), bound, s)
	}

	e2 := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 1, DisableInvestigator: true})
	res2, err := e2.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Verify(parts); err != nil {
		t.Fatal(err)
	}
	if imb := res2.Report.LoadImbalance(); imb < 2 {
		t.Errorf("naive imbalance = %.3f, expected gross imbalance (>= 2)", imb)
	}
}

func TestSyncExchangeAblation(t *testing.T) {
	parts := mkParts(dist.Exponential, 4, 3000, 123)
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2, SyncExchange: true})
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
	// Barrier tokens ride KControl, so meta traffic must include them.
	if res.Report.MetaBytes == 0 {
		t.Error("sync exchange should produce control traffic")
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := NewEngine[uint64](Options{Procs: 2, Transport: "pigeon"}, comm.U64Codec{}); err == nil {
		t.Error("bad transport accepted")
	}
}

func TestReportContents(t *testing.T) {
	const procs = 4
	const perProc = 4000
	e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2})
	parts := mkParts(dist.Uniform, procs, perProc, 77)
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.N != procs*perProc {
		t.Errorf("N = %d, want %d", rep.N, procs*perProc)
	}
	if rep.Procs != procs || rep.Workers != 2 {
		t.Errorf("procs/workers = %d/%d", rep.Procs, rep.Workers)
	}
	if rep.Total <= 0 {
		t.Error("total duration not measured")
	}
	if rep.Steps[StepLocalSort] <= 0 || rep.Steps[StepExchange] <= 0 {
		t.Errorf("step durations missing: %v", rep.Steps)
	}
	if rep.MsgsSent == 0 || rep.BytesSent == 0 {
		t.Error("no traffic recorded")
	}
	if rep.DataBytes == 0 || rep.SampleBytes == 0 || rep.MetaBytes == 0 {
		t.Errorf("traffic split missing: data=%d sample=%d meta=%d",
			rep.DataBytes, rep.SampleBytes, rep.MetaBytes)
	}
	if rep.TempPeakBytes == 0 {
		t.Error("temporary memory not tracked")
	}
	if rep.ResidentBytes == 0 {
		t.Error("resident memory not tracked")
	}
	if rep.SamplesPerProc <= 0 {
		t.Error("sample count missing")
	}
	sum := 0
	for _, sz := range rep.PartSizes() {
		sum += sz
	}
	if sum != rep.N {
		t.Errorf("part sizes sum to %d, want %d", sum, rep.N)
	}
	if s := rep.String(); len(s) == 0 {
		t.Error("report String empty")
	}
	if min, max := rep.MinMaxPart(); min > max {
		t.Errorf("MinMaxPart = %d > %d", min, max)
	}
}

func TestSampleFactorChangesSampleCount(t *testing.T) {
	parts := mkParts(dist.Uniform, 4, 20000, 9)
	eSmall := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 1, SampleFactor: 0.004})
	eFull := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 1, SampleFactor: 1})
	rSmall, err := eSmall.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	rFull, err := eFull.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	if rSmall.Report.SamplesPerProc >= rFull.Report.SamplesPerProc {
		t.Errorf("sample counts: small=%d full=%d", rSmall.Report.SamplesPerProc,
			rFull.Report.SamplesPerProc)
	}
	if rSmall.Report.SampleBytes >= rFull.Report.SampleBytes {
		t.Errorf("sample bytes: small=%d full=%d", rSmall.Report.SampleBytes,
			rFull.Report.SampleBytes)
	}
}

func TestResultAPI(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	parts := [][]uint64{
		{10, 20, 30},
		{15, 25, 25},
		{5, 40},
		{1},
	}
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
	// Search present keys.
	for _, key := range []uint64{1, 5, 25, 40} {
		_, _, global, found := res.Search(key)
		if !found {
			t.Errorf("Search(%d) not found", key)
		}
		if e2, err := res.At(global); err != nil || e2.Key != key {
			t.Errorf("At(Search(%d)) = %v, %v", key, e2, err)
		}
	}
	// First occurrence semantics for duplicates.
	_, _, g25, _ := res.Search(25)
	if e2, _ := res.At(g25); e2.Key != 25 {
		t.Errorf("Search(25) global index wrong")
	}
	if g25 > 0 {
		if prev, _ := res.At(g25 - 1); prev.Key >= 25 {
			t.Errorf("Search(25) is not the first occurrence")
		}
	}
	// Absent key.
	if _, _, _, found := res.Search(23); found {
		t.Error("Search(23) found a missing key")
	}
	// Count duplicates.
	if c := res.Count(25); c != 2 {
		t.Errorf("Count(25) = %d, want 2", c)
	}
	if c := res.Count(99); c != 0 {
		t.Errorf("Count(99) = %d, want 0", c)
	}
	// Top / Bottom.
	top := res.Top(3)
	if len(top) != 3 || top[0].Key != 40 || top[1].Key != 30 || top[2].Key != 25 {
		t.Errorf("Top(3) = %v", top)
	}
	bottom := res.Bottom(2)
	if len(bottom) != 2 || bottom[0].Key != 1 || bottom[1].Key != 5 {
		t.Errorf("Bottom(2) = %v", bottom)
	}
	if got := res.Top(100); len(got) != res.Len() {
		t.Errorf("Top(100) = %d entries, want %d", len(got), res.Len())
	}
	// PartRanges are ordered and non-overlapping.
	ranges := res.PartRanges()
	var prevMax uint64
	seenNonEmpty := false
	for _, pr := range ranges {
		if pr.Count == 0 {
			continue
		}
		if seenNonEmpty && pr.Min < prevMax {
			t.Errorf("part ranges overlap: %v", ranges)
		}
		prevMax = pr.Max
		seenNonEmpty = true
	}
	// At out of range.
	if _, err := res.At(-1); err == nil {
		t.Error("At(-1) accepted")
	}
	if _, err := res.At(res.Len()); err == nil {
		t.Error("At(Len()) accepted")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 2, WorkersPerProc: 1})
	parts := [][]uint64{{3, 1}, {2, 4}}
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a key.
	orig := res.Parts[0][0]
	res.Parts[0][0].Key += 1000
	if err := res.Verify(parts); err == nil {
		t.Error("Verify missed corrupted key")
	}
	res.Parts[0][0] = orig
	// Duplicate an origin.
	res.Parts[1][0] = res.Parts[0][0]
	if err := res.Verify(parts); err == nil {
		t.Error("Verify missed duplicated origin")
	}
}

func TestManyProcessors(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The paper's upper sweep point: 52 processors.
	e := newTestEngine(t, Options{Procs: 52, WorkersPerProc: 1})
	parts := mkParts(dist.Uniform, 52, 500, 4)
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary small datasets sort correctly with provenance intact.
func TestPropertySortVerifies(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 3, WorkersPerProc: 1})
	f := func(a, b, c []uint64) bool {
		parts := [][]uint64{a, b, c}
		res, err := e.Sort(parts)
		if err != nil {
			return false
		}
		return res.Verify(parts) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMailbox(t *testing.T) {
	mb := newMailbox[int]()
	mb.push(1)
	mb.push(2)
	if v, ok := mb.pop(); !ok || v != 1 {
		t.Fatalf("pop = %d, %v", v, ok)
	}
	if mb.len() != 1 {
		t.Fatalf("len = %d, want 1", mb.len())
	}
	if v, ok := mb.pop(); !ok || v != 2 {
		t.Fatalf("pop = %d, %v", v, ok)
	}
	done := make(chan struct{})
	go func() {
		if _, ok := mb.pop(); ok {
			t.Error("pop after close returned ok")
		}
		close(done)
	}()
	mb.close()
	<-done
}

// Chaos test: adversarial message timing must not change the result. A
// burst of delayed sends, placed by the seed, reorders the interleaving
// the dispatcher and mailboxes must tolerate.
func TestSortUnderNetworkJitter(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		e := newTestEngine(t, Options{Procs: 5, WorkersPerProc: 2})
		armSendJitter(t, seed, 12, 2*time.Millisecond)
		parts := mkParts(dist.RightSkewed, 5, 1500, seed)
		res, err := e.Sort(parts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Verify(parts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Jitter with simultaneous sorts: messages of interleaved pipelines with
// random delays must still demultiplex cleanly by sort id.
func TestSortManyUnderJitter(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 3, WorkersPerProc: 1})
	armSendJitter(t, 9, 16, time.Millisecond)
	datasets := [][][]uint64{
		mkParts(dist.Uniform, 3, 800, 1),
		mkParts(dist.Exponential, 3, 800, 2),
		mkParts(dist.Constant, 3, 800, 3),
	}
	results, err := e.SortMany(datasets...)
	if err != nil {
		t.Fatal(err)
	}
	for d, res := range results {
		if err := res.Verify(datasets[d]); err != nil {
			t.Fatalf("dataset %d: %v", d, err)
		}
	}
}
