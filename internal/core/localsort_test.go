package core

import (
	"math"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/lsort"
)

// TestRadixPathFloat64TotalOrder: with float keys the engine must
// produce the norm's IEEE-754 total order end to end, NaNs pinned after
// +Inf and -0 before +0, with no keys lost.
func TestRadixPathFloat64TotalOrder(t *testing.T) {
	keys := []float64{
		3.5, math.NaN(), -1, math.Inf(-1), 0, math.Copysign(0, -1),
		math.Inf(1), -2.25, 7, math.NaN(), -0.5, 1e300, -1e300, 2, 11, -7,
	}
	eng, err := NewEngine[float64](Options{Procs: 4}, comm.F64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.SortSlice(keys)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Keys()
	if len(got) != len(keys) {
		t.Fatalf("%d keys out, want %d", len(got), len(keys))
	}
	norm := comm.F64Codec{}.Norm
	for i := 1; i < len(got); i++ {
		if norm(got[i-1]) > norm(got[i]) {
			t.Fatalf("total order violated at %d: %v after %v", i, got[i], got[i-1])
		}
	}
	// The two NaNs sort last, after +Inf.
	if !math.IsNaN(got[len(got)-1]) || !math.IsNaN(got[len(got)-2]) {
		t.Fatalf("NaNs not pinned at the end: %v", got[len(got)-4:])
	}
	if !math.IsInf(got[len(got)-3], 1) {
		t.Fatalf("+Inf not immediately before the NaNs: %v", got[len(got)-4:])
	}
	// -0 strictly before +0.
	zeroAt := -1
	for i, k := range got {
		if k == 0 {
			zeroAt = i
			break
		}
	}
	if math.Copysign(1, got[zeroAt]) != -1 || math.Copysign(1, got[zeroAt+1]) != 1 {
		t.Fatalf("-0/+0 not ordered by sign at %d", zeroAt)
	}
}

// TestPoolingBalancesAndReuses: the Figure-11 temp-memory accounting
// must balance to zero after every sort with pooling on, a second sort on
// the same engine must actually reuse pooled slabs — entry slabs, the ref
// slabs of steps 1 and 6 alike — and
// a sort failing at any stage must return every slab it took. Both paths
// are held to their own slab counts: a key-only sort under a codec
// without Denorm goes by entry, one under U64Codec by ref.
func TestPoolingBalancesAndReuses(t *testing.T) {
	t.Run("entries", func(t *testing.T) { poolingCase(t, entryPathCodec[uint64]{comm.U64Codec{}}, false) })
	t.Run("refs", func(t *testing.T) { poolingCase(t, comm.U64Codec{}, true) })
}

func poolingCase(t *testing.T, codec comm.Codec[uint64], byRef bool) {
	keys := dist.Gen{Kind: dist.Normal, Seed: 9}.Keys(8000)
	// Resident whatever the forced-spill lane says: the traffic counted
	// below is the resident pipeline's (TestSinkErrorExits holds the
	// spilled one to gets == puts).
	eng, err := NewEngine[uint64](Options{Procs: 4, WorkersPerProc: 2, MemoryBudget: -1}, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	parts := Blocks(keys, 4)
	const sorts = 3
	for round := 0; round < sorts; round++ {
		res, err := eng.Sort(parts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.TempPeakBytes <= 0 {
			t.Fatalf("round %d: no temporary memory accounted", round)
		}
		checkNoLeak(t, eng)
	}
	for i, n := range eng.nodes {
		entryGets, entryHits, entryPuts := n.entryPool.Stats()
		refGets, refHits, refPuts := n.refPool.Stats()
		// Four ref slabs a sort either way: step 1's refs and its scratch
		// half (the one the sorted share lands in is read through step 5),
		// and step 6's two halves. Every sort after the first finds all four
		// waiting.
		if refGets != 4*sorts || refPuts != 4*sorts || refHits < 4*(sorts-1) {
			t.Fatalf("node %d: ref pool saw %d gets, %d hits, %d puts over %d sorts", i, refGets, refHits, refPuts, sorts)
		}
		if !byRef {
			// Per sort a node takes two entry slabs, the share's entries
			// step 5 builds and the assembly buffer, and both come back: the
			// result is not a pool slab. Every sort after the first finds
			// both waiting.
			if entryGets != 2*sorts || entryPuts != 2*sorts || entryHits != 2*(sorts-1) {
				t.Fatalf("node %d: entry pool saw %d gets, %d hits, %d puts over %d sorts", i, entryGets, entryHits, entryPuts, sorts)
			}
			continue
		}
		// By ref no other slab is taken: the share is refs, the landed
		// refs are the entries they stand for, and the result is built at
		// its exact size.
		if entryGets != 0 || entryPuts != 0 {
			t.Fatalf("node %d: a sort by ref took %d entry slabs and returned %d", i, entryGets, entryPuts)
		}
	}
	t.Cleanup(failpoint.Reset)
	failures := []struct {
		site string
		mode failpoint.Mode
	}{
		{fpLocalSort, failpoint.ModeError}, {fpSplitters, failpoint.ModeError},
		{fpExchange, failpoint.ModeError}, {fpMerge, failpoint.ModeError},
		// A panic with the exchange complete: the assembly the refs arm
		// would have merged is discarded by run's recovery. (A panic inside
		// the refs arm itself: TestStep6RefsPanicGivesEverythingBack.)
		{fpMerge, failpoint.ModePanic},
	}
	for _, f := range failures {
		gets0, puts0 := poolTraffic(eng)
		failpoint.Set(f.site, failpoint.Schedule{Mode: f.mode, Count: -1})
		_, err := eng.Sort(parts)
		failpoint.Reset()
		if err == nil {
			t.Fatalf("%s/%s: injected sort succeeded", f.site, f.mode)
		}
		gets1, puts1 := poolTraffic(eng)
		if gets, puts := gets1-gets0, puts1-puts0; gets != puts {
			t.Fatalf("%s/%s: failed sort took %d slabs and returned %d", f.site, f.mode, gets, puts)
		}
		checkNoLeak(t, eng)
	}
}

// TestLocalSortInexactNormSpills: step 1 holds to Options.MemoryBudget
// under an inexact norm too. A share of strings sharing a prefix longer
// than the norm sees, four times the budget, is formed as runs of refs on
// disk and merged back to exactly the refs the unbudgeted sort gives —
// norm and index, so the same keys in the same order — since the chunk
// sorts are stable by (key, index) and the merge, ordering equal norms by
// the keys the refs index, breaks equal keys by run.
func TestLocalSortInexactNormSpills(t *testing.T) {
	const n = 4000
	keys := dist.Gen{Kind: dist.RightSkewed, Seed: 47}.Strings(n, "shared-prefix-")
	codec := comm.Codec[string](comm.StringCodec{})
	step1 := func(budget int64) (*sortRun[string], []lsort.NormRef) {
		t.Helper()
		e, err := NewEngine[string](Options{Procs: 1, WorkersPerProc: 2, MemoryBudget: budget, SpillDir: t.TempDir()}, codec)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		s := testSortRun(e)
		s.src = &keySource[string]{keys: keys}
		refs, err := s.localSort()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.recycleRetired)
		return s, refs
	}
	resident, want := step1(-1)
	budgeted, got := step1(n * int64(entryBytes[string]()) / 4)
	if resident.runs.spillBytes.Load() != 0 || budgeted.runs.spillBytes.Load() == 0 {
		t.Fatalf("spilled %d bytes unbudgeted and %d budgeted, want none and some",
			resident.runs.spillBytes.Load(), budgeted.runs.spillBytes.Load())
	}
	if len(got) != len(want) {
		t.Fatalf("%d refs budgeted, %d unbudgeted", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ref %d is %+v budgeted, %+v unbudgeted", i, got[i], want[i])
		}
	}
	for i := 1; i < len(want); i++ {
		if a, b := keys[want[i-1].Idx], keys[want[i].Idx]; a > b || a == b && want[i-1].Idx > want[i].Idx {
			t.Fatalf("refs %d and %d stand for %q@%d before %q@%d", i-1, i, a, want[i-1].Idx, b, want[i].Idx)
		}
	}
}
