package lsort

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func sortedRandom(r *rand.Rand, n, domain int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(r.Intn(domain))
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func TestCoRankSplitsAreValid(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := sortedRandom(r, r.Intn(500), 100)
		b := sortedRandom(r, r.Intn(500), 100)
		total := len(a) + len(b)
		if total == 0 {
			continue
		}
		d := r.Intn(total + 1)
		i, j := CoRank(d, a, b, lessU64)
		if i+j != d {
			t.Fatalf("CoRank(%d) = (%d,%d), sum != d", d, i, j)
		}
		if i < 0 || i > len(a) || j < 0 || j > len(b) {
			t.Fatalf("CoRank out of range: (%d,%d)", i, j)
		}
		// Everything left of the split must be <= everything right of it.
		if i > 0 && j < len(b) && a[i-1] > b[j] {
			t.Fatalf("invalid split: a[%d-1]=%d > b[%d]=%d", i, a[i-1], j, b[j])
		}
		if j > 0 && i < len(a) && b[j-1] > a[i] {
			t.Fatalf("invalid split: b[%d-1]=%d > a[%d]=%d", j, b[j-1], i, a[i])
		}
	}
}

func TestCoRankExtremes(t *testing.T) {
	a := []uint64{1, 2, 3}
	b := []uint64{4, 5}
	if i, j := CoRank(0, a, b, lessU64); i != 0 || j != 0 {
		t.Fatalf("CoRank(0) = (%d,%d)", i, j)
	}
	if i, j := CoRank(5, a, b, lessU64); i != 3 || j != 2 {
		t.Fatalf("CoRank(total) = (%d,%d)", i, j)
	}
	// All of a below all of b: diagonal 3 must split exactly between.
	if i, j := CoRank(3, a, b, lessU64); i != 3 || j != 0 {
		t.Fatalf("CoRank(3) = (%d,%d), want (3,0)", i, j)
	}
}

func TestParallelMergeIntoMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		a := sortedRandom(r, r.Intn(8000), 500)
		b := sortedRandom(r, r.Intn(8000), 500)
		want := make([]uint64, len(a)+len(b))
		mergeInto(want, a, b, lessU64)
		for _, ways := range []int{1, 2, 3, 4, 7, 16} {
			got := make([]uint64, len(a)+len(b))
			parallelMerge(got, a, b, ways, lessKernel(lessU64))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d ways %d: mismatch at %d: %d != %d",
						trial, ways, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelMergeIntoStable: with duplicate keys spanning CoRank
// diagonals, the parallel merge must emit ties exactly as mergeInto does
// (all of a's before all of b's). The spill tier's byte-identity proof
// rests on this; tagged elements make a violated tie order visible where
// plain uint64 values could not.
func TestParallelMergeIntoStable(t *testing.T) {
	type tagged struct {
		key uint64
		src int
		seq int
	}
	r := rand.New(rand.NewSource(31))
	less := func(x, y tagged) bool { return x.key < y.key }
	for trial := 0; trial < 30; trial++ {
		mk := func(src, n, domain int) []tagged {
			s := make([]tagged, n)
			for i := range s {
				s[i].key = uint64(r.Intn(domain))
			}
			sort.Slice(s, func(i, j int) bool { return s[i].key < s[j].key })
			for i := range s {
				s[i].src, s[i].seq = src, i
			}
			return s
		}
		// Tiny domains force long tie runs across every split diagonal.
		a := mk(0, 3000+r.Intn(6000), 1+r.Intn(8))
		b := mk(1, 3000+r.Intn(6000), 1+r.Intn(8))
		want := make([]tagged, len(a)+len(b))
		mergeInto(want, a, b, less)
		for _, ways := range []int{2, 3, 4, 7, 16} {
			got := make([]tagged, len(a)+len(b))
			parallelMerge(got, a, b, ways, lessKernel(less))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d ways %d: tie order diverges at %d: %+v != %+v",
						trial, ways, i, got[i], want[i])
				}
			}
		}
	}
}

func TestParallelMergeIntoEdgeCases(t *testing.T) {
	// Empty operands.
	got := make([]uint64, 3)
	parallelMerge(got, []uint64{1, 2, 3}, nil, 4, lessKernel(lessU64))
	for i, v := range []uint64{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("empty b: %v", got)
		}
	}
	parallelMerge(got, nil, []uint64{4, 5, 6}, 4, lessKernel(lessU64))
	for i, v := range []uint64{4, 5, 6} {
		if got[i] != v {
			t.Fatalf("empty a: %v", got)
		}
	}
	// All-equal keys (duplicated splitter territory).
	a := make([]uint64, 5000)
	b := make([]uint64, 5000)
	out := make([]uint64, 10000)
	parallelMerge(out, a, b, 8, lessKernel(lessU64))
	for _, v := range out {
		if v != 0 {
			t.Fatal("all-equal merge corrupted")
		}
	}
	// ways > total.
	small := make([]uint64, 2)
	parallelMerge(small, []uint64{2}, []uint64{1}, 100, lessKernel(lessU64))
	if small[0] != 1 || small[1] != 2 {
		t.Fatalf("tiny merge = %v", small)
	}
}

func TestParallelMergeIntoPanicsOnShortDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short dst accepted")
		}
	}()
	parallelMerge(make([]uint64, 1), []uint64{1}, []uint64{2}, 2, lessKernel(lessU64))
}

// Property: parallelMerge is a sorted permutation for arbitrary
// sorted inputs and way counts.
func TestPropertyParallelMerge(t *testing.T) {
	f := func(ra, rb []uint64, waysRaw uint8) bool {
		sort.Slice(ra, func(i, j int) bool { return ra[i] < ra[j] })
		sort.Slice(rb, func(i, j int) bool { return rb[i] < rb[j] })
		ways := int(waysRaw)%8 + 1
		out := make([]uint64, len(ra)+len(rb))
		parallelMerge(out, ra, rb, ways, lessKernel(lessU64))
		if !slices.IsSorted(out) {
			return false
		}
		counts := map[uint64]int{}
		for _, v := range ra {
			counts[v]++
		}
		for _, v := range rb {
			counts[v]++
		}
		for _, v := range out {
			counts[v]--
			if counts[v] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The balanced handler with intra-merge parallelism must still agree with
// the sequential handler on key sequences.
func TestMergeAdjacentRunsWithSplitMerges(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	// Two large runs: the single final merge triggers the merge-path split.
	a := sortedRandom(r, 40000, 1000)
	b := sortedRandom(r, 40000, 1000)
	data := append(append([]uint64{}, a...), b...)
	in := append([]uint64(nil), data...)
	out := MergeAdjacentRuns(data, make([]uint64, len(data)), []int{0, len(a), len(data)}, lessU64, true)
	checkSortedPermutation(t, in, out)
}

func BenchmarkParallelMerge(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := sortedRandom(r, 1<<20, 1<<30)
	c := sortedRandom(r, 1<<20, 1<<30)
	dst := make([]uint64, len(a)+len(c))
	for _, ways := range []int{1, 2, 4, 8} {
		b.Run(benchName(ways), func(b *testing.B) {
			b.SetBytes(int64(len(dst)) * 8)
			for i := 0; i < b.N; i++ {
				parallelMerge(dst, a, c, ways, lessKernel(lessU64))
			}
		})
	}
}

func benchName(ways int) string {
	return "ways=" + string(rune('0'+ways))
}
