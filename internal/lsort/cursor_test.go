package lsort

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// chunkedCursor yields a run in batches of varying sizes, reusing one
// backing buffer across Next calls to police the "batch valid until the
// next Next" contract in consumers.
type chunkedCursor struct {
	run   []uint64
	sizes []int
	call  int
	buf   []uint64
}

func (c *chunkedCursor) Next() ([]uint64, error) {
	if len(c.run) == 0 {
		return nil, nil
	}
	n := c.sizes[c.call%len(c.sizes)]
	c.call++
	if n > len(c.run) {
		n = len(c.run)
	}
	c.buf = append(c.buf[:0], c.run[:n]...)
	c.run = c.run[n:]
	return c.buf, nil
}

// stableMerged is the merge oracle: the runs concatenated in run order and
// stably sorted, which leaves equal elements in run order — the tie rule
// of every merge here.
func stableMerged(runs [][]uint64) []uint64 {
	return slices.SortedStableFunc(slices.Values(slices.Concat(runs...)), cmp.Compare[uint64])
}

// TestMergeCursorsMatchesKWay: streaming runs through batching cursors
// must reproduce the stable sort of their concatenation byte for byte —
// including tie order, broken by cursor index. This is the equivalence the
// spill tier's final merge is built on.
func TestMergeCursorsMatchesKWay(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		k := 1 + r.Intn(9)
		runs := make([][]uint64, k)
		total := 0
		for i := range runs {
			runs[i] = sortedRandom(r, r.Intn(3000), 1+r.Intn(50))
			total += len(runs[i])
		}
		want := stableMerged(runs)
		cursors := make([]Cursor[uint64], k)
		for i := range runs {
			cursors[i] = &chunkedCursor{run: runs[i], sizes: []int{1 + r.Intn(7), 1 + r.Intn(500), 97}}
		}
		dst := make([]uint64, total)
		n, err := MergeCursors(dst, cursors, lessU64)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if n != len(want) {
			t.Fatalf("trial %d: merged %d of %d", trial, n, len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d: %d != %d", trial, i, dst[i], want[i])
			}
		}
	}
}

// TestMergeCursorsMixedSlices: resident runs via SliceCursor interleave
// with batching cursors and still match the stable sort.
func TestMergeCursorsMixedSlices(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	runs := [][]uint64{
		sortedRandom(r, 500, 20),
		sortedRandom(r, 0, 5),
		sortedRandom(r, 1200, 20),
		sortedRandom(r, 3, 2),
	}
	want := stableMerged(runs)
	cursors := []Cursor[uint64]{
		NewSliceCursor(runs[0]),
		&chunkedCursor{run: runs[1], sizes: []int{4}},
		&chunkedCursor{run: runs[2], sizes: []int{11, 3}},
		NewSliceCursor(runs[3]),
	}
	dst := make([]uint64, len(want))
	n, err := MergeCursors(dst, cursors, lessU64)
	if err != nil || n != len(want) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

type failingCursor struct {
	left int
	err  error
}

func (c *failingCursor) Next() ([]uint64, error) {
	if c.left == 0 {
		return nil, c.err
	}
	c.left--
	return []uint64{1}, nil
}

// TestMergeCursorsError: a cursor error surfaces instead of being
// swallowed, with the prefix emitted so far reported.
func TestMergeCursorsError(t *testing.T) {
	boom := errors.New("boom")
	dst := make([]uint64, 16)
	n, err := MergeCursors(dst, []Cursor[uint64]{
		&failingCursor{left: 2, err: boom},
		NewSliceCursor([]uint64{0, 2}),
	}, lessU64)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n == 0 || n > 4 {
		t.Fatalf("n = %d", n)
	}
	// Single-cursor path must also propagate the error.
	if _, err := MergeCursors(dst, []Cursor[uint64]{&failingCursor{err: boom}}, lessU64); !errors.Is(err, boom) {
		t.Fatalf("single-cursor err = %v", err)
	}
}

// TestLoserTreeOneLessPerMatch: over tie-heavy input — all keys equal,
// and every run holding the same keys, where the old two-call tie test
// paid twice — the loser tree, entered through KWayMerge and through
// MergeCursors, spends at most ⌈log₂ k⌉ less calls per popped element
// after the k−1 priming matches, and still emits ties in run order.
func TestLoserTreeOneLessPerMatch(t *testing.T) {
	type tagged struct{ key, run int }
	const per = 200
	for _, k := range []int{3, 4, 5, 8, 13} {
		depth := 0
		for 1<<depth < k {
			depth++
		}
		for _, stride := range []int{0, 1} { // key of element j is j*stride
			runs := make([][]tagged, k)
			for i := range runs {
				runs[i] = make([]tagged, per)
				for j := range runs[i] {
					runs[i][j] = tagged{key: j * stride, run: i}
				}
			}
			calls := 0
			less := func(a, b tagged) bool { calls++; return a.key < b.key }
			check := func(name string, out []tagged) {
				t.Helper()
				if budget := k - 1 + len(out)*depth; len(out) != k*per || calls > budget {
					t.Errorf("%s k=%d stride=%d: %d less calls for %d elements, budget %d",
						name, k, stride, calls, len(out), budget)
				}
				for i := 1; i < len(out); i++ {
					if a, b := out[i-1], out[i]; a.key > b.key || a.key == b.key && a.run > b.run {
						t.Fatalf("%s k=%d stride=%d: %+v emitted before %+v", name, k, stride, a, b)
					}
				}
			}
			check("KWayMerge", KWayMerge(runs, less))

			calls = 0
			cursors := make([]Cursor[tagged], k)
			for i := range runs {
				cursors[i] = NewSliceCursor(runs[i])
			}
			dst := make([]tagged, k*per)
			n, err := MergeCursors(dst, cursors, less)
			if err != nil {
				t.Fatal(err)
			}
			check("MergeCursors", dst[:n])
		}
	}
}
