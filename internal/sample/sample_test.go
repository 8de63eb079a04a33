package sample

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pgxsort/internal/dist"
)

func lessU64(a, b uint64) bool    { return a < b }
func greaterU64(a, b uint64) bool { return a > b }
func belowU64(a, b uint64) bool   { return a < b }

func TestCount(t *testing.T) {
	cases := []struct {
		buffer, p, entry int
		factor           float64
		localN           int
		want             int
	}{
		// Paper's X with 8-byte entries and 10 procs: 256KB/(10*8) = 3276.
		{DefaultBufferBytes, 10, 8, 1, 1 << 20, 3276},
		// Factor 0.004 of that, floor'd: 13.
		{DefaultBufferBytes, 10, 8, 0.004, 1 << 20, 13},
		// Clamped to local size.
		{DefaultBufferBytes, 2, 8, 1, 100, 100},
		// Never below 1 sample.
		{DefaultBufferBytes, 1 << 20, 8, 0.0001, 50, 1},
		// Empty local data sends nothing.
		{DefaultBufferBytes, 4, 8, 1, 0, 0},
		// Degenerate p and entry sizes are clamped.
		{DefaultBufferBytes, 0, 0, 1, 10, 10},
	}
	for _, c := range cases {
		got := Count(c.buffer, c.p, c.entry, c.factor, c.localN)
		if got != c.want {
			t.Errorf("Count(%d,%d,%d,%v,%d) = %d, want %d",
				c.buffer, c.p, c.entry, c.factor, c.localN, got, c.want)
		}
	}
}

func TestRegular(t *testing.T) {
	sorted := make([]uint64, 100)
	for i := range sorted {
		sorted[i] = uint64(i)
	}
	s := Regular(sorted, 9)
	if len(s) != 9 {
		t.Fatalf("got %d samples, want 9", len(s))
	}
	// Regular positions: (i+1)*100/10 = 10,20,...,90.
	for i, v := range s {
		if v != uint64((i+1)*10) {
			t.Errorf("sample[%d] = %d, want %d", i, v, (i+1)*10)
		}
	}
	if !slices.IsSorted(s) {
		t.Error("samples not sorted")
	}
	if got := Regular(sorted, 0); got != nil {
		t.Error("zero samples should return nil")
	}
	if got := Regular([]uint64{}, 5); got != nil {
		t.Error("empty input should return nil")
	}
	if got := Regular(sorted[:3], 10); len(got) != 3 {
		t.Errorf("oversampling should clamp to n, got %d", len(got))
	}
}

func TestSplittersFromSorted(t *testing.T) {
	pool := make([]uint64, 1000)
	for i := range pool {
		pool[i] = uint64(i)
	}
	sp := SplittersFromSorted(pool, 4)
	if len(sp) != 3 {
		t.Fatalf("got %d splitters, want 3", len(sp))
	}
	want := []uint64{250, 500, 750}
	for i := range want {
		if sp[i] != want[i] {
			t.Errorf("splitter[%d] = %d, want %d", i, sp[i], want[i])
		}
	}
	if got := SplittersFromSorted(pool, 1); got != nil {
		t.Error("p=1 needs no splitters")
	}
	if got := SplittersFromSorted([]uint64{}, 4); got != nil {
		t.Error("no samples -> no splitters")
	}
}

func TestSelectSplitters(t *testing.T) {
	runs := [][]uint64{
		{10, 20, 30},
		{5, 15, 25},
		{12, 22, 32},
	}
	sp := SelectSplitters(runs, 3, lessU64)
	if len(sp) != 2 {
		t.Fatalf("got %d splitters, want 2", len(sp))
	}
	if !slices.IsSorted(sp) {
		t.Error("splitters not sorted")
	}
	// Merged pool: 5 10 12 15 20 22 25 30 32; positions 3 and 6 -> 15, 25.
	if sp[0] != 15 || sp[1] != 25 {
		t.Errorf("splitters = %v, want [15 25]", sp)
	}
}

func rangesCover(t *testing.T, r Ranges, n int) {
	t.Helper()
	if r.Bounds[0] != 0 {
		t.Fatalf("first bound = %d, want 0", r.Bounds[0])
	}
	if r.Bounds[len(r.Bounds)-1] != n {
		t.Fatalf("last bound = %d, want %d", r.Bounds[len(r.Bounds)-1], n)
	}
	for i := 1; i < len(r.Bounds); i++ {
		if r.Bounds[i] < r.Bounds[i-1] {
			t.Fatalf("bounds not monotone at %d: %v", i, r.Bounds)
		}
	}
}

func TestPartitionDistinctSplitters(t *testing.T) {
	data := make([]uint64, 100)
	for i := range data {
		data[i] = uint64(i)
	}
	splitters := []uint64{24, 49, 74}
	for _, inv := range []bool{false, true} {
		r := Partition(data, splitters, lessU64, greaterU64, belowU64, inv)
		rangesCover(t, r, 100)
		counts := r.Counts()
		want := []int{25, 25, 25, 25}
		for i := range want {
			if counts[i] != want[i] {
				t.Errorf("investigate=%v: counts = %v, want %v", inv, counts, want)
			}
		}
	}
}

func TestPartitionRespectsSplitterSemantics(t *testing.T) {
	// Keys equal to a distinct splitter go to that splitter's bucket.
	data := []uint64{1, 2, 2, 2, 3, 4}
	r := Partition(data, []uint64{2, 3}, lessU64, greaterU64, belowU64, true)
	counts := r.Counts()
	// Bucket 0: <=2 -> {1,2,2,2}; bucket 1: (2,3] -> {3}; bucket 2: {4}.
	if counts[0] != 4 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("counts = %v, want [4 1 1]", counts)
	}
}

func TestPartitionDuplicatedSplittersNaive(t *testing.T) {
	// All data equal to the duplicated splitter value: naive search sends
	// everything to the first destination (Figure 3b).
	data := make([]uint64, 80)
	for i := range data {
		data[i] = 42
	}
	splitters := []uint64{42, 42, 42} // p = 4
	r := Partition(data, splitters, lessU64, greaterU64, belowU64, false)
	rangesCover(t, r, 80)
	counts := r.Counts()
	if counts[0] != 80 || counts[1] != 0 || counts[2] != 0 || counts[3] != 0 {
		t.Errorf("naive counts = %v, want [80 0 0 0]", counts)
	}
}

func TestPartitionEmptyData(t *testing.T) {
	r := Partition([]uint64{}, []uint64{1, 2}, lessU64, greaterU64, belowU64, true)
	rangesCover(t, r, 0)
	for _, c := range r.Counts() {
		if c != 0 {
			t.Fatalf("counts on empty data = %v", r.Counts())
		}
	}
}

func TestPartitionNoSplitters(t *testing.T) {
	data := []uint64{3, 1, 2}
	r := Partition(data, nil, lessU64, greaterU64, belowU64, true)
	if r.NumDests() != 1 {
		t.Fatalf("p=1 should yield a single range")
	}
	if lo, hi := r.Range(0); lo != 0 || hi != 3 {
		t.Fatalf("single range = [%d,%d), want [0,3)", lo, hi)
	}
}

// elem is one element of a processor's sorted share: its key, and its
// index, which step 1 orders equal keys by.
type elem struct {
	key uint64
	idx int
}

// cutAt is a splitter as one processor cuts at it: the key, and the index
// up to which its elements of that key go below it (the engine's cut).
type cutAt struct {
	key uint64
	tie int
}

func elemAfter(e elem, c cutAt) bool { return e.key > c.key || e.key == c.key && e.idx > c.tie }

// exactRanges runs steps 2-4 over sorted shares as the engine does: s
// regular samples a share, the master's SelectSplitters and
// SplitterOwners, and each share cut by Partition at its cuts. It returns
// every share's ranges.
func exactRanges(shares [][]uint64, s int) []Ranges {
	p := len(shares)
	runs := make([][]uint64, p)
	for q, sh := range shares {
		runs[q] = Regular(sh, s)
	}
	splitters := SelectSplitters(runs, p, lessU64)
	owners := SplitterOwners(runs, splitters, lessU64)
	if splitters == nil {
		splitters = make([]uint64, p-1) // no samples anywhere: nothing to cut
	}
	out := make([]Ranges, p)
	for self, sh := range shares {
		cuts := make([]cutAt, len(splitters))
		for j, k := range splitters {
			cuts[j] = cutAt{k, math.MaxInt}
			if len(owners) == 0 {
				continue
			}
			switch q, pos := int(owners[j]>>32), int(uint32(owners[j])); {
			case self > q:
				cuts[j].tie = -1
			case self == q:
				cuts[j].tie = RegularIndex(pos, len(sh), len(runs[q]))
			}
		}
		data := make([]elem, len(sh))
		for i, k := range sh {
			data[i] = elem{k, i}
		}
		out[self] = Partition(data, cuts, nil, elemAfter, nil, false)
	}
	return out
}

// dupShares is p sorted shares of up to maxLen keys from a domain of
// domain values: duplicate-heavy for a small domain.
func dupShares(rng *rand.Rand, p, maxLen, domain int) [][]uint64 {
	shares := make([][]uint64, p)
	for q := range shares {
		shares[q] = make([]uint64, rng.Intn(maxLen+1))
		for i := range shares[q] {
			shares[q][i] = uint64(rng.Intn(domain))
		}
		slices.Sort(shares[q])
	}
	return shares
}

// checkStableCut fails unless the shares' ranges, merged as step 6 merges
// them (stably, source by source) and concatenated destination by
// destination, are the stable (key, proc, index) merge of the shares:
// then every destination holds one contiguous rank range of the sorted
// whole, duplicates included, and the sort is globally stable.
func checkStableCut(t *testing.T, shares [][]uint64, all []Ranges) {
	t.Helper()
	type tagged struct{ key, proc, idx int }
	byKey := func(a, b tagged) int { return cmp.Compare(a.key, b.key) }
	var want, got []tagged
	for q, sh := range shares {
		rangesCover(t, all[q], len(sh))
		for i, k := range sh {
			want = append(want, tagged{int(k), q, i})
		}
	}
	slices.SortStableFunc(want, byKey)
	for d := 0; d < len(shares); d++ {
		var part []tagged
		for q, sh := range shares {
			lo, hi := all[q].Range(d)
			for i := lo; i < hi; i++ {
				part = append(part, tagged{int(sh[i]), q, i})
			}
		}
		slices.SortStableFunc(part, byKey)
		got = append(got, part...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("shares %v: ranges %v do not concatenate to the stable merge", shares, all)
	}
}

// TestPropertyPartitionWellFormed: for p random duplicate-heavy sorted
// shares, cutting each at the exact-rank splitters of its regular samples
// gives every destination a contiguous range of the stable (key, proc,
// index) order — whatever the domain, the share lengths and the sample
// count, on both of SelectSplitters' ways.
func TestPropertyPartitionWellFormed(t *testing.T) {
	f := func(seed int64, pRaw, sRaw, domRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p, s := 1+int(pRaw)%16, 1+int(sRaw)%200
		shares := dupShares(rng, p, 300, 1+int(domRaw)%20)
		checkStableCut(t, shares, exactRanges(shares, s))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitterOwnersMatchTaggedMerge holds SplitterOwners to a brute-force
// merge of the samples tagged (key, run, position): the splitter of rank
// j·n/p there is the one SelectSplitters chose, at the run and position
// SplitterOwners names — on runs of one sample, of a few and of many per
// splitter.
func TestSplitterOwnersMatchTaggedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{2, 3, 5, 8, 16} {
		for _, s := range []int{1, 4, 8*p - 1, 8 * p, 20 * p} {
			for _, domain := range []int{1, 3, 50, 1 << 30} {
				runs := make([][]uint64, p)
				type tagged struct{ key, run, pos int }
				var all []tagged
				for q := range runs {
					runs[q] = make([]uint64, s-rng.Intn(2)*rng.Intn(s)) // some runs short
					for i := range runs[q] {
						runs[q][i] = uint64(rng.Intn(domain))
					}
					slices.Sort(runs[q])
					for i, k := range runs[q] {
						all = append(all, tagged{int(k), q, i})
					}
				}
				slices.SortStableFunc(all, func(a, b tagged) int { return cmp.Compare(a.key, b.key) })
				splitters := SelectSplitters(runs, p, lessU64)
				owners := SplitterOwners(runs, splitters, lessU64)
				for j := range splitters {
					want := all[splitterRank(j+1, len(all), p)]
					run, pos := int(owners[j]>>32), int(uint32(owners[j]))
					if splitters[j] != uint64(want.key) || run != want.run || pos != want.pos {
						t.Fatalf("p=%d s=%d domain=%d splitter %d: %d at (%d,%d), tagged merge has %d at (%d,%d)",
							p, s, domain, j, splitters[j], run, pos, want.key, want.run, want.pos)
					}
				}
			}
		}
	}
}

// TestInvestigatorBalancesSkewedData: the paper's Table II scenario —
// many processors, duplicate-heavy data — with exact-rank splitters every
// part lands within sample.Epsilon of the ideal, while cutting at the
// same splitters on keys alone (Figure 3b) is grossly unbalanced.
func TestInvestigatorBalancesSkewedData(t *testing.T) {
	const p, perProc, s = 10, 20000, 3276
	shares := make([][]uint64, p)
	var samplePool []uint64
	for q := range shares {
		shares[q] = dist.Gen{Kind: dist.RightSkewed, Seed: uint64(100 + q), Domain: 64}.Keys(perProc)
		slices.Sort(shares[q])
		samplePool = append(samplePool, Regular(shares[q], s)...)
	}
	maxExact, minExact := MaxMinCounts(exactRanges(shares, s))
	eps := Epsilon(p, s, perProc)
	if float64(maxExact) > (1+eps)*perProc {
		t.Errorf("exact ranks: max load %d exceeds (1+%.4f) x ideal %d", maxExact, eps, perProc)
	}
	if float64(minExact) < (1-eps-1.0/(s+1))*perProc {
		t.Errorf("exact ranks: min load %d below (1-%.4f) x ideal %d", minExact, eps+1.0/(s+1), perProc)
	}

	slices.Sort(samplePool)
	splitters := SplittersFromSorted(samplePool, p)
	var naive []Ranges
	for _, sh := range shares {
		naive = append(naive, Partition(sh, splitters, lessU64, greaterU64, belowU64, false))
	}
	if maxNaive, _ := MaxMinCounts(naive); maxNaive < 2*perProc {
		t.Errorf("keys alone should be grossly unbalanced on skewed data, max=%d ideal=%d", maxNaive, perProc)
	}
}

func TestMaxMinCounts(t *testing.T) {
	r1 := Ranges{Bounds: []int{0, 10, 30}} // loads 10, 20
	r2 := Ranges{Bounds: []int{0, 5, 10}}  // loads 5, 5
	maxC, minC := MaxMinCounts([]Ranges{r1, r2})
	if maxC != 25 || minC != 15 {
		t.Errorf("MaxMinCounts = (%d,%d), want (25,15)", maxC, minC)
	}
	if maxC, minC = MaxMinCounts(nil); maxC != 0 || minC != 0 {
		t.Error("empty input should report zeros")
	}
}

// MaxMinCounts reports the largest and smallest destination loads implied
// by summing each processor's ranges.
func MaxMinCounts(all []Ranges) (maxCount, minCount int) {
	if len(all) == 0 {
		return 0, 0
	}
	p := all[0].NumDests()
	totals := make([]int, p)
	for _, r := range all {
		for d := 0; d < p; d++ {
			lo, hi := r.Range(d)
			totals[d] += hi - lo
		}
	}
	maxCount, minCount = totals[0], totals[0]
	for _, t := range totals[1:] {
		if t > maxCount {
			maxCount = t
		}
		if t < minCount {
			minCount = t
		}
	}
	return maxCount, minCount
}
