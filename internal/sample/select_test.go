package sample

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"pgxsort/internal/dist"
	"pgxsort/internal/lsort"
)

// prefixLess is the engine's two-level comparator for strings under an
// inexact norm: the first two bytes decide, the whole key breaks their
// ties.
func prefixLess(a, b string) bool {
	if pa, pb := a[:min(2, len(a))], b[:min(2, len(b))]; pa != pb {
		return pa < pb
	}
	return a < b
}

// mergedRuns is the reference both of SelectSplitters' ways are held to:
// the runs laid back to back and stably sorted.
func mergedRuns[E any](runs [][]E, less func(a, b E) bool) []E {
	all := slices.Concat(runs...)
	slices.SortStableFunc(all, func(a, b E) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	return all
}

// checkSelectSplitters holds SelectSplitters, and rank selection itself
// where SelectSplitters would rather merge, to the splitters of the merged
// runs, value for value, for every p.
func checkSelectSplitters[E comparable](t *testing.T, name string, runs [][]E, less func(a, b E) bool) {
	t.Helper()
	merged := mergedRuns(runs, less)
	for _, p := range []int{1, 2, 3, 4, 10} {
		want := SplittersFromSorted(merged, p)
		got := SelectSplitters(runs, p, less)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Errorf("%s p=%d: SelectSplitters %v, merge gives %v", name, p, got, want)
		}
		if want == nil {
			continue
		}
		if got := selectRanks(runs, len(merged), p, less); !slices.Equal(got, want) {
			t.Errorf("%s p=%d: selectRanks %v, merge gives %v", name, p, got, want)
		}
	}
}

// sortedRuns cuts keys into runs of the given lengths and sorts each.
func sortedRuns[E any](keys []E, lengths []int, less func(a, b E) bool) [][]E {
	runs := make([][]E, len(lengths))
	for i, n := range lengths {
		runs[i], keys = slices.Clone(keys[:n]), keys[n:]
		slices.SortFunc(runs[i], func(a, b E) int {
			switch {
			case less(a, b):
				return -1
			case less(b, a):
				return 1
			}
			return 0
		})
	}
	return runs
}

// TestSelectSplittersMatchesMerge: rank selection over the sample runs
// returns what picking from their merge returns — on distinct keys, a
// single repeated key, few distinct keys, with an empty run among the
// runs, nothing but empty runs, runs of unequal length and fewer samples
// than splitters — for uint64 and for strings under a two-level less.
func TestSelectSplittersMatchesMerge(t *testing.T) {
	shapes := []struct {
		name    string
		kind    dist.Kind
		lengths []int
	}{
		{"uniform", dist.Uniform, []int{500, 500, 500, 500}},
		{"all-equal", dist.Constant, []int{300, 300, 300}},
		{"few-distinct", dist.FewDistinct, []int{400, 400, 400, 400, 400}},
		{"right-skewed", dist.RightSkewed, []int{256, 256, 256, 256}},
		{"one-empty-run", dist.Uniform, []int{200, 0, 200, 200}},
		{"all-empty", dist.Uniform, []int{0, 0, 0}},
		{"no-runs", dist.Uniform, nil},
		{"unequal", dist.Normal, []int{1, 700, 13, 0, 90}},
		{"fewer-than-splitters", dist.Uniform, []int{1, 1, 0, 1}},
		{"one-sample", dist.Uniform, []int{0, 1}},
	}
	for _, sh := range shapes {
		total := 0
		for _, n := range sh.lengths {
			total += n
		}
		keys := dist.Gen{Kind: sh.kind, Seed: 3, Domain: 64}.Keys(total)
		checkSelectSplitters(t, sh.name+"/uint64", sortedRuns(keys, sh.lengths, lessU64), lessU64)

		strs := make([]string, total)
		for i, k := range keys {
			strs[i] = fmt.Sprintf("k%03d", k%1000) // shared prefixes: the second level decides
		}
		checkSelectSplitters(t, sh.name+"/string", sortedRuns(strs, sh.lengths, prefixLess), prefixLess)
	}
}

// TestSelectRanksWithoutAnOrder: under a less that is no strict weak order
// (NaN keys compared with <) there are no ranks to find, but selection
// still ends and answers with samples.
func TestSelectRanksWithoutAnOrder(t *testing.T) {
	nan := math.NaN()
	lessF := func(a, b float64) bool { return a < b }
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runs := make([][]float64, 1+rng.Intn(5))
		n := 0
		for i := range runs {
			runs[i] = make([]float64, rng.Intn(40))
			for j := range runs[i] {
				runs[i][j] = float64(rng.Intn(8))
				if rng.Intn(3) == 0 {
					runs[i][j] = nan
				}
			}
			n += len(runs[i])
		}
		if n == 0 {
			continue
		}
		for _, x := range selectRanks(runs, n, 2+rng.Intn(8), lessF) {
			if !slices.ContainsFunc(runs, func(r []float64) bool {
				return slices.ContainsFunc(r, func(e float64) bool { return e == x || e != e && x != x })
			}) {
				t.Fatalf("seed %d: splitter %v is no sample of %v", seed, x, runs)
			}
		}
	}
}

// TestSelectSplittersAllocations: selecting allocates the splitters and
// the windows — no merged buffer, nothing per rank.
func TestSelectSplittersAllocations(t *testing.T) {
	keys := dist.Gen{Kind: dist.Uniform, Seed: 4}.Keys(4 * 1024)
	runs := sortedRuns(keys, []int{1024, 1024, 1024, 1024}, lessU64)
	if allocs := testing.AllocsPerRun(10, func() { SelectSplitters(runs, 4, lessU64) }); allocs != 2 {
		t.Fatalf("%v allocations per call, want 2 (the splitters, the windows)", allocs)
	}
}

// TestSelectSplittersComparisonBound pins the cost the master pays at the
// benchmark's processor count, the scaling sweep's and the last one that
// still selects, on the two ways sample runs overlap: alike (every
// processor samples the same distribution) and disjoint (sorted input
// dealt in blocks). Selection has to stay under the n*ceil(log2 p)
// comparisons of the merge it replaced.
func TestSelectSplittersComparisonBound(t *testing.T) {
	for _, p := range []int{4, 16, 52, 64} {
		for _, shape := range []string{"alike", "disjoint"} {
			runs := benchRuns(p, shape)
			calls := 0
			counted := func(a, b uint64) bool { calls++; return a < b }
			got := SelectSplitters(runs, p, counted)
			if want := SplittersFromSorted(mergedRuns(runs, lessU64), p); !slices.Equal(got, want) {
				t.Fatalf("p=%d %s: selected %v, merge gives %v", p, shape, got, want)
			}
			n := p * len(runs[0])
			if n < selectMinPerRank*p*p {
				t.Fatalf("p=%d: %d samples are merged, not selected from", p, n)
			}
			if bound := n * bits.Len(uint(p-1)); calls > bound {
				t.Errorf("p=%d %s: %d comparisons, the merge makes up to %d", p, shape, calls, bound)
			}
		}
	}
	if p := 128; DefaultBufferBytes/8 >= selectMinPerRank*p*p {
		t.Errorf("p=%d still selects; BenchmarkSelectSplitters has the merge ahead there", p)
	}
}

// benchRuns is the master's input at p processors under the paper's
// sample budget (one 256 KiB buffer of 8-byte samples in all): p sorted
// runs, drawn alike or holding disjoint, ascending key ranges.
func benchRuns(p int, shape string) [][]uint64 {
	s := DefaultBufferBytes / 8 / p
	keys := dist.Gen{Kind: dist.Uniform, Seed: 5}.Keys(p * s)
	if shape == "disjoint" {
		slices.Sort(keys)
	}
	lengths := make([]int, p)
	for i := range lengths {
		lengths[i] = s
	}
	return sortedRuns(keys, lengths, lessU64)
}

// TestRegularIndexIsRegular: reading a field at RegularIndex's positions
// is Regular followed by reading the field, for every clamped count.
func TestRegularIndexIsRegular(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1000} {
		sorted := make([]uint64, n)
		for i := range sorted {
			sorted[i] = uint64(3 * i)
		}
		for _, s := range []int{1, 2, n / 2, n - 1, n} {
			if s < 1 {
				continue
			}
			want := Regular(sorted, s)
			for i := range want {
				if got := sorted[RegularIndex(i, n, s)]; got != want[i] {
					t.Fatalf("n=%d s=%d: sample %d at RegularIndex is %d, Regular gives %d", n, s, i, got, want[i])
				}
			}
		}
	}
}

// FuzzSelectSplitters holds rank selection to the merge reference on
// arbitrary keys (narrow widths are mostly ties), cut into runs at
// arbitrary places, for any p.
func FuzzSelectSplitters(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(4), uint8(0))
	f.Add([]byte{9, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 255}, uint8(10), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []byte{90, 170}, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, data, cuts []byte, p, bits uint8) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[i*8:])
			if bits%2 == 1 {
				keys[i] &= 7
			}
		}
		if len(cuts) > 8 {
			cuts = cuts[:8]
		}
		bounds := []int{0, len(keys)}
		for _, c := range cuts {
			bounds = append(bounds, int(c)*len(keys)/255)
		}
		slices.Sort(bounds)
		runs := make([][]uint64, len(bounds)-1)
		for i := range runs {
			runs[i] = keys[bounds[i]:bounds[i+1]]
			slices.Sort(runs[i])
		}
		want := SplittersFromSorted(mergedRuns(runs, lessU64), int(p))
		got := SelectSplitters(runs, int(p), lessU64)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("p=%d runs %v: SelectSplitters %v, merge gives %v", p, runs, got, want)
		}
		if want != nil && !slices.Equal(selectRanks(runs, len(keys), int(p), lessU64), want) {
			t.Fatalf("p=%d runs %v: selectRanks %v, merge gives %v", p, runs, selectRanks(runs, len(keys), int(p), lessU64), want)
		}
	})
}

// BenchmarkSelectSplitters is the master's step 3 at the benchmark's
// processor count, at the scaling sweep's (cmd/pgxsort-bench -procs) and
// on either side of the count where SelectSplitters goes from selecting
// ranks (up to 64) to merging the runs, always over the same 256 KiB of
// samples: rank selection against picking from the merged runs.
func BenchmarkSelectSplitters(b *testing.B) {
	for _, p := range []int{4, 16, 52, 64, 128} {
		for _, shape := range []string{"alike", "disjoint"} {
			runs := benchRuns(p, shape)
			b.Run(fmt.Sprintf("select/p=%d/%s", p, shape), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					selectRanks(runs, len(runs)*len(runs[0]), p, lessU64)
				}
			})
			b.Run(fmt.Sprintf("merge/p=%d/%s", p, shape), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					SplittersFromSorted(lsort.MergeRuns(runs, lessU64, false), p)
				}
			})
		}
	}
}
