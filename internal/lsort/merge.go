// Package lsort implements the local (single-node) sorting machinery the
// paper builds on: step 1's radix, every pass of it split among the
// workers, the balanced pairwise merging handler of Figure 2 that step 6
// merges the received runs with, TimSort (the algorithm
// Spark's sortByKey uses per partition), and the cursor merges that stream
// spilled runs back (MergeCursors, MergeCursor), whose
// loser tree over slice cursors is also the balanced handler's measured
// counterpart (KWayMerge).
//
// The merges are generic over the element type with an explicit less
// function, mirroring the paper's claim that the sorting library "is
// generic and works with any data type". What the engine itself runs is
// not: every ordered key has a uint64 norm, so steps 1 and 6 work over
// fixed 16-byte (norm, index) refs whatever the element is — step 1's
// closure-free parallel radix (SortNormRefs), and step 6's balanced merge of ref
// runs (MergeNormRefRuns) — the same Figure 2 round scheduler and
// intra-merge split as the generic handler (balancedMerge, parallelMerge),
// written once over a two-run kernel, with only that kernel specialised.
// The cursor merges run the same kernel: under an exact norm
// MergeCursor merges up to roundFanIn cursors in rounds, each a
// Figure 2 pairing of ref runs built from the cursors' leading windows
// (cursorRounds), so the budgeted step 6 costs per element what the
// resident one costs. The loser tree over cursors (cursorTree) is what
// more cursors than that, an inexact norm, whose ties need the real keys,
// and a bare less function run; it keeps each cursor's head norm beside
// the tree and compares those.
package lsort

import "sync"

// mergeInto merges the two sorted runs a and b into dst, which must have
// length len(a)+len(b). The merge is stable: on equal elements the one
// from a is emitted first.
func mergeInto[E any](dst, a, b []E, less func(x, y E) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// MergeAdjacentRuns merges sorted runs laid out back-to-back in data using
// the paper's balanced merging handler (Figure 2): in round r, the run
// owned by position i (i divisible by 2^(r+1)) merges with the run at
// i+2^r, so operand sizes stay near-equal in every round and all merges of
// a round can run in parallel.
//
// bounds holds the k+1 run boundaries: run j is data[bounds[j]:bounds[j+1]].
// scratch must be a buffer of len(data); rounds ping-pong between data and
// scratch. The returned slice (either data or scratch) holds the fully
// merged result. If parallel is true the merges of each round execute
// concurrently.
func MergeAdjacentRuns[E any](data, scratch []E, bounds []int, less func(x, y E) bool, parallel bool) []E {
	out, _ := MergeAdjacentRunsOwned(data, scratch, bounds, less, parallel)
	return out
}

// MergeAdjacentRunsOwned is MergeAdjacentRuns reporting which buffer backs
// the result: fromScratch is true when the merged slice is carved from
// scratch and false when it is carved from data. Callers recycling both
// buffers through a pool need this ownership bit explicitly — comparing
// base pointers misfires for zero-length results (no element to take the
// address of) and is fragile against sub-slice offsets.
func MergeAdjacentRunsOwned[E any](data, scratch []E, bounds []int, less func(x, y E) bool, parallel bool) (out []E, fromScratch bool) {
	return balancedMerge(data, scratch, bounds, parallel, lessKernel(less))
}

// pairKernel is all the balanced handler asks of an element type: the
// stable merge of two sorted runs (left run first on ties) and the split
// of that merge's path at a diagonal. The schedule below and the
// intra-merge split (parallelMerge) are written once over it; the generic
// kernel compares through a less function, the NormRef kernel
// (normrefs.go) is closure-free.
type pairKernel[E any] struct {
	merge  func(dst, a, b []E)
	coRank func(d int, a, b []E) (i, j int)
}

func lessKernel[E any](less func(x, y E) bool) pairKernel[E] {
	return pairKernel[E]{
		merge:  func(dst, a, b []E) { mergeInto(dst, a, b, less) },
		coRank: func(d int, a, b []E) (int, int) { return CoRank(d, a, b, less) },
	}
}

// balancedMerge is the round scheduler of Figure 2 behind
// MergeAdjacentRunsOwned and MergeNormRefRuns. bounds is only read.
func balancedMerge[E any](data, scratch []E, bounds []int, parallel bool, kern pairKernel[E]) (out []E, fromScratch bool) {
	if len(bounds) < 2 {
		return data[:0], false
	}
	if len(scratch) < len(data) {
		panic("lsort: scratch smaller than data")
	}
	runs := len(bounds) - 1
	src, dst := data, scratch
	for step := 1; step < runs; step *= 2 {
		// When the round has fewer merges than workers (the tail of
		// Figure 2's tree), split each merge along merge-path diagonals
		// so the idle workers help (intra-merge parallelism extension).
		mergesThisRound := (runs + 2*step - 1) / (2 * step)
		ways := 1
		if parallel && mergesThisRound < mergeWays() {
			ways = (mergeWays() + mergesThisRound - 1) / mergesThisRound
		}
		var wg sync.WaitGroup
		for i := 0; i < runs; i += 2 * step {
			j := i + step
			lo := bounds[i]
			if j >= runs {
				// No partner this round: carry the run over unchanged.
				hi := bounds[min(i+step, runs)]
				copy(dst[lo:hi], src[lo:hi])
				continue
			}
			mid := bounds[j]
			hi := bounds[min(j+step, runs)]
			if parallel {
				wg.Add(1)
				go func(lo, mid, hi, ways int) {
					defer wg.Done()
					parallelMerge(dst[lo:hi], src[lo:mid], src[mid:hi], ways, kern)
				}(lo, mid, hi, ways)
			} else {
				kern.merge(dst[lo:hi], src[lo:mid], src[mid:hi])
			}
		}
		wg.Wait()
		src, dst = dst, src
		fromScratch = !fromScratch
	}
	return src[:bounds[runs]], fromScratch
}
