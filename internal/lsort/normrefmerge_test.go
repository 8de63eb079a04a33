package lsort

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pgxsort/internal/dist"
)

// sortedRefRuns lays norms out as the engine's step 6 finds them: cut at
// bounds, every run sorted, Idx the position in the whole buffer — so Idx
// ascends within a run and from one run to the next, and a stable merge's
// output is ordered by (Norm, Idx).
func sortedRefRuns(norms []uint64, bounds []int) []NormRef {
	norms = slices.Clone(norms)
	for i := 1; i < len(bounds); i++ {
		slices.Sort(norms[bounds[i-1]:bounds[i]])
	}
	return refsOf(norms)
}

// checkMergeNormRefRuns holds MergeNormRefRuns to the generic balanced
// handler under normRefLess, ref for ref: Idx is the stability witness.
func checkMergeNormRefRuns(t *testing.T, norms []uint64, bounds []int, parallel bool) {
	t.Helper()
	in := sortedRefRuns(norms, bounds)
	want := MergeAdjacentRuns(slices.Clone(in), make([]NormRef, len(in)), bounds, normRefLess, parallel)
	refs, scratch := slices.Clone(in), make([]NormRef, len(in))
	got, fromScratch := MergeNormRefRuns(refs, scratch, bounds, parallel)
	if len(got) > 0 {
		if inScratch := &got[0] == &scratch[0]; inScratch != fromScratch {
			t.Fatalf("fromScratch = %v, result in scratch = %v", fromScratch, inScratch)
		}
	}
	if !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bounds %v parallel=%v: ref %d is %+v, want %+v", bounds, parallel, i, got[i], want[i])
			}
		}
		t.Fatalf("%d refs out, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if a, b := got[i-1], got[i]; a.Norm > b.Norm || a.Norm == b.Norm && a.Idx > b.Idx {
			t.Fatalf("bounds %v: %+v before %+v", bounds, a, b)
		}
	}
}

// TestMergeNormRefRunsMatchesGeneric: every distribution kind, one to
// nine runs — evenly cut, with the first, the last or every run empty,
// and cut at random — sequentially, and in parallel at GOMAXPROCS 1, 2
// and 4 (which set how many ways the last rounds split along co-rank
// diagonals). n is large enough that the merges of those rounds pass
// parallelMerge's sequential cutoff.
func TestMergeNormRefRunsMatchesGeneric(t *testing.T) {
	const n = 8000
	rng := rand.New(rand.NewSource(18))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{0, 1, 2, 4} { // 0: the sequential handler
		parallel := procs > 0
		if parallel {
			runtime.GOMAXPROCS(procs)
		}
		for _, kind := range dist.AllKinds {
			norms := dist.Gen{Kind: kind, Seed: 31}.Keys(n)
			for runs := 1; runs <= 9; runs++ {
				even := make([]int, runs+1)
				for i := range even {
					even[i] = i * n / runs
				}
				firstEmpty := append([]int{0}, even...)
				lastEmpty := append(slices.Clone(even), n)
				random := make([]int, runs+1)
				for i := 1; i < runs; i++ {
					random[i] = rng.Intn(n + 1)
				}
				random[runs] = n
				slices.Sort(random)
				for _, bounds := range [][]int{even, firstEmpty, lastEmpty, random} {
					checkMergeNormRefRuns(t, norms, bounds, parallel)
				}
			}
		}
		// Every run empty.
		for runs := 1; runs <= 9; runs++ {
			checkMergeNormRefRuns(t, nil, make([]int, runs+1), parallel)
		}
	}
}

// TestMergeNormRefsShapes drives the two-run kernel through each of its
// regimes against mergeInto: runs already in order (the copy shortcut),
// in reverse order, interleaved with ties, in long streaks from either
// run (the streak-following loops), and of very unequal length (the
// two-ended loop stops when either run is down to one ref and the plain
// loop finishes).
func TestMergeNormRefsShapes(t *testing.T) {
	run := func(n int, norm func(i int) uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = norm(i)
		}
		return out
	}
	cases := []struct {
		name string
		a, b []uint64
	}{
		{"both-empty", nil, nil},
		{"a-empty", nil, run(5, func(i int) uint64 { return uint64(i) })},
		{"b-empty", run(5, func(i int) uint64 { return uint64(i) }), nil},
		{"in-order", run(100, func(i int) uint64 { return uint64(i) }), run(80, func(i int) uint64 { return uint64(100 + i) })},
		{"in-order-touching", run(100, func(i int) uint64 { return uint64(i / 2) }), run(80, func(i int) uint64 { return uint64(49 + i/3) })},
		{"reversed", run(100, func(i int) uint64 { return uint64(500 + i) }), run(80, func(i int) uint64 { return uint64(i) })},
		{"all-equal", run(64, func(int) uint64 { return 7 }), run(65, func(int) uint64 { return 7 })},
		{"interleaved-ties", run(300, func(i int) uint64 { return uint64(i / 3) }), run(300, func(i int) uint64 { return uint64(i / 5) })},
		{"short-a", run(3, func(i int) uint64 { return uint64(100 * i) }), run(400, func(i int) uint64 { return uint64(i) })},
		{"short-b", run(400, func(i int) uint64 { return uint64(i) }), run(3, func(i int) uint64 { return uint64(100 * i) })},
		{"alternating-streaks", run(1000, func(i int) uint64 { return uint64(i / 100 * 2) }), run(1000, func(i int) uint64 { return uint64(i/100*2 + 1) })},
		{"streak-then-interleaved", run(600, func(i int) uint64 { return uint64(max(i-300, 0)) }), run(600, func(i int) uint64 { return uint64(i / 2) })},
		{"one-each", []uint64{2}, []uint64{1}},
		{"one-each-tie", []uint64{2}, []uint64{2}},
	}
	for _, tc := range cases {
		refs := refsOf(append(slices.Clone(tc.a), tc.b...))
		a, b := refs[:len(tc.a)], refs[len(tc.a):]
		want := make([]NormRef, len(refs))
		mergeInto(want, a, b, normRefLess)
		got := make([]NormRef, len(refs))
		mergeNormRefs(got, a, b)
		if !slices.Equal(got, want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, want)
		}
	}
}

// TestCoRankNormRefsTies: with every norm equal the stable merge path
// runs all of a, then all of b, and every diagonal has to split exactly
// there — the concatenation of the two part merges is the whole merge. A
// split tolerating ties on the boundary would let b's refs jump ahead.
func TestCoRankNormRefsTies(t *testing.T) {
	for _, shape := range [][2]int{{0, 5}, {5, 0}, {1, 1}, {7, 3}, {3, 7}, {40, 40}} {
		norms := make([]uint64, shape[0]+shape[1])
		for i := range norms {
			norms[i] = 9
		}
		refs := refsOf(norms)
		a, b := refs[:shape[0]], refs[shape[0]:]
		whole := make([]NormRef, len(refs))
		mergeNormRefs(whole, a, b)
		if !slices.Equal(whole, refs) {
			t.Fatalf("%v: all-equal merge reordered the refs", shape)
		}
		for d := 0; d <= len(refs); d++ {
			i, j := coRankNormRefs(d, a, b)
			if gi, gj := CoRank(d, a, b, normRefLess); i != gi || j != gj {
				t.Fatalf("%v d=%d: split (%d,%d), generic CoRank (%d,%d)", shape, d, i, j, gi, gj)
			}
			if i != min(d, len(a)) || i+j != d {
				t.Fatalf("%v d=%d: split (%d,%d) leaves the stable path", shape, d, i, j)
			}
			parts := make([]NormRef, len(refs))
			mergeNormRefs(parts[:d], a[:i], b[:j])
			mergeNormRefs(parts[d:], a[i:], b[j:])
			if !slices.Equal(parts, whole) {
				t.Fatalf("%v d=%d: part merges %v differ from the whole %v", shape, d, parts, whole)
			}
		}
	}
}

// FuzzMergeNormRefRuns holds MergeNormRefRuns to the generic handler on
// arbitrary norms of 8, 32 or 64 significant bits (narrow ones are mostly
// ties), cut into runs at arbitrary places — empty runs included — and
// cycled up to a length on either side of the intra-merge split cutoff.
func FuzzMergeNormRefRuns(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint16(0), true)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, []byte{128}, uint8(2), uint16(2), false)
	f.Add([]byte{5, 4, 3, 2, 1, 0, 9, 8, 7, 7, 7, 7, 7, 7, 7, 7}, []byte{0, 0, 255, 255, 90}, uint8(0), uint16(9000), true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1}, []byte{64, 128, 192}, uint8(1), uint16(5000), true)
	f.Fuzz(func(t *testing.T, data, cuts []byte, bits uint8, length uint16, parallel bool) {
		norms := bytesToKeys(data)
		for i, have := len(norms), len(norms); have > 0 && i < int(length)%12000; i++ {
			norms = append(norms, norms[i%have]+uint64(i/have))
		}
		if keyBits := [...]int{8, 32, 64}[bits%3]; keyBits < 64 {
			for i := range norms {
				norms[i] &= 1<<keyBits - 1
			}
		}
		if len(cuts) > 12 {
			cuts = cuts[:12]
		}
		bounds := []int{0, len(norms)}
		for _, c := range cuts {
			bounds = append(bounds, int(c)*len(norms)/255)
		}
		slices.Sort(bounds)
		checkMergeNormRefRuns(t, norms, bounds, parallel)
	})
}

// batchCursor yields a run in fixed-size batches without copying, the
// shape a spill RunReader produces, for any element type.
type batchCursor[E any] struct {
	run   []E
	batch int
}

func (c *batchCursor[E]) Next() ([]E, error) {
	n := min(c.batch, len(c.run))
	out := c.run[:n]
	c.run = c.run[n:]
	return out, nil
}

// headElem is one element of TestCursorTreeHeadNorms: key orders it, cur
// and pos say where it came from.
type headElem struct {
	key      uint64
	cur, pos int
}

// TestCursorTreeHeadNorms: both norm arms of MergeCursor must emit
// what MergeCursors emits under the two-level "norm, then key" less — ties
// by cursor index — for an exact norm (no less at all: the rounds, and
// above roundFanIn the tree with its cursor-index tie rule) and an inexact
// one (key>>4, keys break the ties: the tree comparing cached head norms),
// across fan-ins, batch sizes that put fill boundaries everywhere (1), off
// the run length (3) and nowhere (0: the whole run, a SliceCursor), runs
// of unequal length and an empty one. The exact half adds the shapes the
// rounds are sensitive to and the fan-ins either side of the cut.
//
// Each arm keeps its own norm budget. The tree takes an element's norm
// once, when it becomes a head: at most n + k calls. The rounds take it
// once, when a round first looks at the element, plus one probe of every
// live window's end a round; a round empties the window of the cursor
// that set its bound, so there are at most as many rounds as windows —
// ceil(len/W) a batch, which is ceil(n/W) + k for whole-run batches.
func TestCursorTreeHeadNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type shape struct {
		name    string
		exact   bool
		keys    [][]uint64 // per cursor, sorted
		batches []int
	}
	var shapes []shape
	for _, exact := range []bool{true, false} {
		for _, k := range []int{2, 3, 4, 7} {
			keys := make([][]uint64, k)
			for c := range keys {
				n := rng.Intn(200)
				if c == 1 {
					n = 0 // an exhausted-at-birth cursor in every merge
				}
				keys[c] = make([]uint64, n)
				for i := range keys[c] {
					keys[c][i] = uint64(rng.Intn(300)) // ties within and across cursors
				}
				slices.Sort(keys[c])
			}
			shapes = append(shapes, shape{fmt.Sprintf("random k=%d", k), exact, keys, []int{1, 3, 0}})
		}
	}
	// k cursors of n keys each, cursor c's i-th key being key(c, i).
	grid := func(k, n int, key func(c, i int) uint64) [][]uint64 {
		keys := make([][]uint64, k)
		for c := range keys {
			keys[c] = make([]uint64, n)
			for i := range keys[c] {
				keys[c][i] = key(c, i)
			}
		}
		return keys
	}
	w4 := roundRefs / 4 // the window of a 4-cursor merge
	// k cursors, every fifth of them live, with ties across cursors and
	// runs a little over two of the k-cursor merge's windows.
	sparse := func(k int) [][]uint64 {
		keys := make([][]uint64, k)
		for c := 0; c < k; c += 5 {
			keys[c] = make([]uint64, 2*roundRefs/k+c%3)
			for i := range keys[c] {
				keys[c][i] = uint64(i/4 + c%7)
			}
		}
		return keys
	}
	shapes = append(shapes,
		// Every round is one cursor's window, in cursor order.
		shape{"all equal", true, grid(4, 2*w4+17, func(c, i int) uint64 { return 5 }), []int{w4 / 2, 0}},
		// Only the bound's cursor ever contributes; the others wait.
		shape{"disjoint ascending", true, grid(4, w4+9, func(c, i int) uint64 { return uint64(c*(w4+9) + i) }), []int{100, 0}},
		shape{"disjoint descending", true, grid(4, w4+9, func(c, i int) uint64 { return uint64((3-c)*(w4+9) + i) }), []int{100, 0}},
		// The widest merge the rounds take, and the narrowest they leave
		// to the tree: no less there, ties by cursor index alone.
		shape{"k = roundFanIn", true, sparse(roundFanIn), []int{50, 0}},
		shape{"k = roundFanIn+1", true, sparse(roundFanIn + 1), []int{50, 0}},
		// One batch spans several windows.
		shape{"batch longer than W", true, grid(2, 3*roundRefs/2+5, func(c, i int) uint64 { return uint64(i / 3 * (c + 1)) }), []int{0}},
	)

	for _, sh := range shapes {
		k := len(sh.keys)
		runs := make([][]headElem, k)
		total, live := 0, 0
		for c, keys := range sh.keys {
			runs[c] = make([]headElem, len(keys))
			for i, key := range keys {
				runs[c][i] = headElem{key: key, cur: c, pos: i}
			}
			total += len(keys)
			if len(keys) > 0 {
				live++
			}
		}
		shift := uint(0)
		if !sh.exact {
			shift = 4
		}
		twoLevel := func(a, b headElem) bool {
			if na, nb := a.key>>shift, b.key>>shift; na != nb {
				return na < nb
			}
			return a.key < b.key
		}
		var tie func(a, b headElem) bool
		if !sh.exact {
			tie = func(a, b headElem) bool { return a.key < b.key }
		}
		refs := make([]NormRef, MergeRefs(k, sh.exact))
		normCalls := 0
		norm := func(e *headElem) uint64 { normCalls++; return e.key >> shift }

		cursors := func(batch int) []Cursor[headElem] {
			cs := make([]Cursor[headElem], k)
			for c := range cs {
				if batch == 0 {
					cs[c] = NewSliceCursor(runs[c])
				} else {
					cs[c] = &batchCursor[headElem]{run: runs[c], batch: batch}
				}
			}
			return cs
		}
		want := make([]headElem, total)
		if n, err := MergeCursors(want, cursors(0), twoLevel); err != nil || n != total {
			t.Fatalf("reference merge: %d of %d, %v", n, total, err)
		}
		for i := 1; i < total; i++ {
			if a, b := want[i-1], want[i]; a.key == b.key && a.cur > b.cur {
				t.Fatalf("reference breaks cursor order on ties: %+v before %+v", a, b)
			}
		}

		for _, batch := range sh.batches {
			name := fmt.Sprintf("%s exact=%v batch=%d", sh.name, sh.exact, batch)
			budget := total + k
			if len(refs) > 0 {
				window, windows := roundRefs/k, 0
				for _, run := range runs {
					b := batch
					if b == 0 {
						b = max(len(run), 1)
					}
					windows += len(run) / b * ((b + window - 1) / window)
					windows += (len(run)%b + window - 1) / window
				}
				budget = total + live*windows
			}
			normCalls = 0
			mc, err := NewMergeCursor(cursors(batch), norm, tie, make([]headElem, total+1), refs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mc.Next() // one batch holds the whole merge
			if err != nil || len(got) != total {
				t.Fatalf("%s: %d of %d, %v", name, len(got), total, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: MergeCursor diverges from the two-level merge", name)
			}
			if normCalls > budget {
				t.Errorf("%s: %d norm calls for %d elements, budget %d", name, normCalls, total, budget)
			}

			// The same merge behind the pull interface, popped a few
			// elements at a time: its state — the tree's heads, a round's
			// merged refs — must survive across pops.
			mc, err = NewMergeCursor(cursors(batch), norm, tie, make([]headElem, 5), refs)
			if err != nil {
				t.Fatal(err)
			}
			got = got[:0]
			for {
				b, err := mc.Next()
				if err != nil {
					t.Fatal(err)
				}
				if len(b) == 0 {
					break
				}
				got = append(got, b...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: MergeCursor diverges from the two-level merge", name)
			}
		}
	}
}
