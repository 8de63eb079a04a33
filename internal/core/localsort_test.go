package core

import (
	"bytes"
	"math"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
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
// slabs of steps 1 and 6 and a sort by ref's provenance slab alike — and
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
		provGets, provHits, provPuts := n.provPool.Stats()
		if !byRef {
			// Per sort a node takes two entry slabs, the step-1 buffer and
			// the assembly buffer, and both come back: the result is not a
			// pool slab. Every sort after the first finds both waiting.
			if entryGets != 2*sorts || entryPuts != 2*sorts || entryHits != 2*(sorts-1) {
				t.Fatalf("node %d: entry pool saw %d gets, %d hits, %d puts over %d sorts", i, entryGets, entryHits, entryPuts, sorts)
			}
			// And three ref slabs, step 1's and step 6's two halves, none of
			// which outlives its step. The first sort's step 6 may already
			// reuse step 1's slab, if the node's part lands in its size class.
			if refGets != 3*sorts || refPuts != 3*sorts || refHits < 3*(sorts-1) {
				t.Fatalf("node %d: ref pool saw %d gets, %d hits, %d puts over %d sorts", i, refGets, refHits, refPuts, sorts)
			}
			if provGets != 0 || provPuts != 0 {
				t.Fatalf("node %d: a sort by entry took %d provenance slabs", i, provGets)
			}
			continue
		}
		// By ref no entry slab is taken: the share is refs and the result
		// is built at its exact size.
		if entryGets != 0 || entryPuts != 0 {
			t.Fatalf("node %d: a sort by ref took %d entry slabs and returned %d", i, entryGets, entryPuts)
		}
		// Four ref slabs a sort: step 1's refs and its scratch half (the
		// one the sorted share lands in waits for the sort to join), and
		// step 6's two halves. Every sort after the first finds all four
		// waiting.
		if refGets != 4*sorts || refPuts != 4*sorts || refHits < 4*(sorts-1) {
			t.Fatalf("node %d: ref pool saw %d gets, %d hits, %d puts over %d sorts", i, refGets, refHits, refPuts, sorts)
		}
		// And one provenance slab, step 6's.
		if provGets != sorts || provPuts != sorts || provHits != sorts-1 {
			t.Fatalf("node %d: provenance pool saw %d gets, %d hits, %d puts over %d sorts", i, provGets, provHits, provPuts, sorts)
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
// than the norm sees, four times the budget, is formed as runs on disk
// and merged back to exactly the entries the unbudgeted sort gives — key
// bytes, Proc and Index — since the chunk sorts are stable by (key, index)
// and the merge breaks equal keys by run.
func TestLocalSortInexactNormSpills(t *testing.T) {
	const n = 4000
	keys := dist.Gen{Kind: dist.RightSkewed, Seed: 47}.Strings(n, "shared-prefix-")
	codec := comm.Codec[string](comm.StringCodec{})
	step1 := func(budget int64) (*sortRun[string], []comm.Entry[string]) {
		t.Helper()
		e, err := NewEngine[string](Options{Procs: 1, WorkersPerProc: 2, MemoryBudget: budget, SpillDir: t.TempDir()}, codec)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		s := testSortRun(e)
		s.src = &keySource[string]{keys: keys}
		sh, err := s.localSort()
		if err != nil {
			t.Fatal(err)
		}
		return s, sh.entries
	}
	resident, want := step1(-1)
	budgeted, got := step1(n * int64(entryBytes[string]()) / 4)
	if resident.runs.spillBytes.Load() != 0 || budgeted.runs.spillBytes.Load() == 0 {
		t.Fatalf("spilled %d bytes unbudgeted and %d budgeted, want none and some",
			resident.runs.spillBytes.Load(), budgeted.runs.spillBytes.Load())
	}
	if len(got) != len(want) {
		t.Fatalf("%d entries budgeted, %d unbudgeted", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Proc != w.Proc || g.Index != w.Index || !bytes.Equal(keyBytes(codec, g.Key), keyBytes(codec, w.Key)) {
			t.Fatalf("entry %d is %+v budgeted, %+v unbudgeted", i, g, w)
		}
	}
}
