// Package sample implements the sampling, splitter-selection and
// range-partitioning steps of the paper's distributed sample sort
// (steps 2-4 of §IV), including the buffer-sized sample count rule of
// §IV-B. Splitters name exact ranks: the master locates each one's sample
// in (key, processor, position) order (SplitterOwners), so step 4 cuts
// duplicated values by rank and every part stays within Epsilon of the
// average — the balance the paper's investigator (Figure 3c) provides.
// The master's splitter selection is serial time every other processor
// waits on, so SelectSplitters selects them by rank across the sorted
// sample runs and never merges them.
package sample

import "math/bits"

// DefaultBufferBytes is PGX.D's read-buffer size: each processor sends
// exactly one buffer (256KB / p) of samples to the master (§IV-B).
const DefaultBufferBytes = 256 * 1024

// Count computes the number of samples a single processor sends to the
// master: factor * bufferBytes / (p * entrySize), the paper's X when
// factor == 1 (Figure 9 sweeps factor over 0.004..1.4). The count is
// clamped to [1, localN].
func Count(bufferBytes, p, entrySize int, factor float64, localN int) int {
	if localN <= 0 {
		return 0
	}
	if p < 1 {
		p = 1
	}
	if entrySize < 1 {
		entrySize = 1
	}
	c := int(factor * float64(bufferBytes) / float64(p*entrySize))
	if c < 1 {
		c = 1
	}
	if c > localN {
		c = localN
	}
	return c
}

// Regular picks s regularly spaced samples from sorted local data
// (RegularIndex's positions). The returned slice is sorted because the
// input is.
func Regular[E any](sorted []E, s int) []E {
	n := len(sorted)
	if n == 0 || s <= 0 {
		return nil
	}
	if s > n {
		s = n
	}
	out := make([]E, s)
	for i := 0; i < s; i++ {
		out[i] = sorted[RegularIndex(i, n, s)]
	}
	return out
}

// RegularIndex is the position of the i-th of s regular samples
// (0 <= i < s <= n) in n sorted elements: (i+1)*n/(s+1), the classic rule
// from parallel sorting by regular sampling. A caller that needs only a
// field of each sample reads it there instead of copying the elements out
// through Regular.
func RegularIndex(i, n, s int) int { return (i + 1) * n / (s + 1) }

// SelectSplitters picks the p-1 final splitters from the per-processor
// sample runs (each sorted), exactly what the master does in step 3: the
// elements at SplittersFromSorted's regular positions of the runs' union.
// It is serial time that every other processor waits on.
//
// The union is never built: the splitters are found by multisequence
// selection (selectRanks), which costs per splitter and run a few short
// bisections, where merging all n samples of m runs costs n log2 m
// comparisons and moves and two n-element buffers (BenchmarkSelectSplitters
// times selection). The values are those of SplittersFromSorted over the stably
// merged runs: elements tied under less are equal, so which copy a rank
// lands on cannot matter.
func SelectSplitters[E any](sampleRuns [][]E, p int, less func(a, b E) bool) []E {
	n := 0
	for _, r := range sampleRuns {
		n += len(r)
	}
	if p <= 1 || n == 0 {
		return nil
	}
	return selectRanks(sampleRuns, n, p, less)
}

// selectRanks is SelectSplitters by rank selection, for n > 0 samples and
// p > 1: the middle splitter first, each within the positions its
// neighbours leave it (selection.ranks). Besides the result it allocates
// one slab of ints, 2 log2(p) + 5 per run.
func selectRanks[E any](runs [][]E, n, p int, less func(a, b E) bool) []E {
	m := len(runs)
	s := selection[E]{runs: runs, less: less, n: n, p: p, out: make([]E, p-1),
		win: make([]int, (2*bits.Len(uint(p))+3)*m)}
	lo, hi := s.win[:m], s.win[m:2*m]
	var some E
	for i, r := range runs {
		hi[i] = len(r)
		if len(r) > 0 {
			some = r[0]
		}
	}
	s.ranks(1, p, lo, hi, 1, some)
	return s.out
}

// selection is one selectRanks call: win holds the windows, a lo and a
// hi row of one int per run for every depth of ranks' recursion, and one
// row of scratch.
type selection[E any] struct {
	runs [][]E
	less func(a, b E) bool
	n, p int
	out  []E
	win  []int
}

// ranks selects splitters j in [jlo, jhi), given that in run i they lie at
// positions [lo[i], hi[i]): the middle one by selectRank, which also finds
// where the runs pass it; those positions bound the splitters below it
// from above and the ones above it from below, so the windows halve at
// every depth, and a run whose keys lie elsewhere altogether (sorted input
// dealt in blocks) drops out with an empty window. some is the answer if
// less is no order and the windows hold nothing.
func (s *selection[E]) ranks(jlo, jhi int, lo, hi []int, depth int, some E) {
	if jlo >= jhi {
		return
	}
	m := len(s.runs)
	j := (jlo + jhi) / 2
	below, upTo := s.win[2*depth*m:(2*depth+1)*m], s.win[(2*depth+1)*m:(2*depth+2)*m]
	copy(below, lo)
	copy(upTo, hi)
	x := selectRank(s.runs, below, upTo, s.win[len(s.win)-m:], splitterRank(j, s.n, s.p), s.less, some)
	s.out[j-1] = x
	s.ranks(jlo, j, lo, upTo, depth+1, x)
	s.ranks(j+1, jhi, below, hi, depth+1, x)
}

// selectRank returns the element x of 0-based rank k in the union of the
// sorted runs, given that in run i it lies at a position in [lo[i], hi[i]),
// and leaves in lo[i] the number of elements of run i below x and in hi[i]
// the number at or below it; at is scratch, one int per run.
//
// lo and hi are narrowed in rounds. A round takes one candidate x from the
// windows, counts by one bisection per window the elements below x, and
// when those do not exceed k the elements at or below x. x has rank k when
// the first count is at most k and the second above it; otherwise every
// window is cut at the count's positions — above x when too many lie below
// it, below x when too few lie at or below. Candidates come by turns from
// two rules. One reads the widest window at the fraction of the way
// through it that k lies through all the windows: runs sampled from one
// distribution agree on their quantiles, so that lands within a few
// positions of the answer. The other draws evenly from all window
// positions, as quickselect draws its pivot, so the windows shrink by a
// constant factor per pair of rounds in expectation however the runs
// overlap. The choice decides the time taken, never the element returned.
//
// That needs less to be a strict weak order, which the engine's
// comparators are (norm, then key). Under a caller's less that is not,
// the runs have no ranks to speak of; the candidate's own position still
// leaves its window every round, so the rounds end, and the last
// candidate (some, if the windows were empty to begin with) is returned
// where the merge would have returned another.
func selectRank[E any](runs [][]E, lo, hi, at []int, k int, less func(a, b E) bool, some E) E {
	x := some
	draw := uint64(k)
	for round := 0; ; round++ {
		left, kIn, c := 0, k, 0
		for i := range runs {
			left += hi[i] - lo[i]
			kIn -= lo[i]
			if hi[i]-lo[i] > hi[c]-lo[c] {
				c = i
			}
		}
		if left == 0 {
			return x
		}
		var pos int
		if round%2 == 0 {
			kIn = min(max(kIn, 0), left-1) // in range already, unless less is no order
			pos = lo[c] + (hi[c]-lo[c])*kIn/left
		} else {
			draw = draw*6364136223846793005 + 1442695040888963407
			t := int((draw >> 33) % uint64(left))
			for c = 0; t >= hi[c]-lo[c]; c++ {
				t -= hi[c] - lo[c]
			}
			pos = lo[c] + t
		}
		x = runs[c][pos]

		below := 0
		for i, r := range runs {
			at[i] = lo[i]
			if lo[i] < hi[i] {
				at[i] = countBelow(r, lo[i], hi[i], x, less, false)
			}
			below += at[i]
		}
		if below > k {
			copy(hi, at)
			hi[c] = min(hi[c], pos)
			continue
		}
		upTo := 0
		for i, r := range runs {
			lo[i] = at[i]
			if at[i] < hi[i] {
				lo[i] = countBelow(r, at[i], hi[i], x, less, true)
			}
			upTo += lo[i]
		}
		if upTo > k {
			copy(hi, lo)
			copy(lo, at)
			return x
		}
		lo[c] = max(lo[c], pos+1)
	}
}

// countBelow is the number of elements of the sorted run r below x —
// strictly, or with orEqual those equal to x too — given that the number
// lies in [lo, hi].
func countBelow[E any](r []E, lo, hi int, x E, less func(a, b E) bool, orEqual bool) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var below bool
		if orEqual {
			below = !less(x, r[mid])
		} else {
			below = less(r[mid], x)
		}
		if below {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SplittersFromSorted picks p-1 splitters at regular positions from an
// already sorted pool of samples. With fewer samples than p-1, samples are
// reused (duplicated splitters).
func SplittersFromSorted[E any](sorted []E, p int) []E {
	if p <= 1 || len(sorted) == 0 {
		return nil
	}
	out := make([]E, p-1)
	for j := 1; j < p; j++ {
		out[j-1] = sorted[splitterRank(j, len(sorted), p)]
	}
	return out
}

// splitterRank is the 0-based rank, among n > 0 samples, of the j-th of
// p-1 splitters: the one rule SplittersFromSorted and selectRanks select
// by and SplitterOwners locates by.
func splitterRank(j, n, p int) int { return min(j*n/p, n-1) }

// SplitterOwners locates the splitters SelectSplitters chose from
// sampleRuns: for each, the run and position of the sample at its rank
// in (key, run, position) order, as one word run<<32 | pos — the form a
// KSplitters message carries. Tagged that way no two samples are equal,
// so a splitter names one global rank, and a processor that knows its
// run's samples can cut its share there exactly (Partition). Per
// splitter it counts the samples below the key in every run, then walks
// the runs in order through the equal ones: two bisections a run.
func SplitterOwners[E any](sampleRuns [][]E, splitters []E, less func(a, b E) bool) []int64 {
	n := 0
	for _, r := range sampleRuns {
		n += len(r)
	}
	owners := make([]int64, len(splitters))
	below := make([]int, len(sampleRuns))
	for j, sp := range splitters {
		k := splitterRank(j+1, n, len(splitters)+1)
		for i, r := range sampleRuns {
			below[i] = countBelow(r, 0, len(r), sp, less, false)
			k -= below[i]
		}
		for i, r := range sampleRuns {
			eq := countBelow(r, below[i], len(r), sp, less, true) - below[i]
			if k < eq {
				owners[j] = int64(i)<<32 | int64(below[i]+k)
				break
			}
			k -= eq
		}
	}
	return owners
}

// Epsilon bounds exact-rank splitters' imbalance: p shares of m elements,
// s regular samples each, leave every part at most (1+Epsilon) times the
// average m. Splitter j has sample rank j·s; a run with c samples at or
// below it has between c·w and (c+1)·w elements there (w = m/(s+1), the
// sample spacing), its owner run at most c·w+1. So a part holds at most
// (s+p-1)·w+1 elements, the first (s+p)·w+1: 1 + (p-1)/(s+1) + 1/m times
// m, with p/m covering that 1/m and ranks p does not divide. The same
// count bounds a part below by 1 - p/(s+1) - 1/m times m.
func Epsilon(p, s, m int) float64 {
	return float64(p-1)/float64(s+1) + float64(p)/float64(m)
}
