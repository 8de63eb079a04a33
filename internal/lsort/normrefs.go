package lsort

import (
	"math"
	"sync"
)

// NormRef stands in for one element of a chunk while step 1 sorts it:
// Norm is the element's key under an order-preserving map onto uint64
// (comm.KeyNormalizer) and Idx its position in the chunk. Sorting the
// 16-byte refs instead of the elements moves two words per radix pass
// whatever the element carries; the caller gathers the elements once, in
// the order the sorted Idx column names.
type NormRef struct {
	Norm uint64
	Idx  uint32
}

func normRefLess(a, b NormRef) bool { return a.Norm < b.Norm }

// SortNormRefs sorts refs by Norm and returns the sorted refs, which
// alias refs or scratch — whichever the last pass wrote; the other holds
// garbage. scratch must have at least len(refs) elements.
//
// The sort is stable. Refs built in position order therefore come out
// ordered by (Norm, Idx) — the local form of ordering by key then
// provenance — and the result is the same for every workers: data is
// divided equally among the workers as in ParallelSort, each chunk is
// radix-sorted (radixNormRefs), and the chunks are combined by the
// balanced merging handler of Figure 2, whose merges and CoRank splits
// keep left-run-first tie order.
func SortNormRefs(refs, scratch []NormRef, workers int) []NormRef {
	n := len(refs)
	if len(scratch) < n {
		panic("lsort: ref scratch smaller than data")
	}
	if uint64(n) > math.MaxUint32 {
		panic("lsort: more refs than Idx can address")
	}
	scratch = scratch[:n]
	if workers <= 1 || n <= 2*insertionCutoff {
		if radixNormRefs(refs, scratch) {
			return scratch
		}
		return refs
	}
	workers = min(workers, n)
	bounds := chunkBounds(n, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(chunk, chunkScratch []NormRef) {
			defer wg.Done()
			if radixNormRefs(chunk, chunkScratch) {
				copy(chunk, chunkScratch)
			}
		}(refs[bounds[i]:bounds[i+1]], scratch[bounds[i]:bounds[i+1]])
	}
	wg.Wait()
	return MergeAdjacentRuns(refs, scratch, bounds, normRefLess, true)
}

// radixNormRefs is the sequential kernel: a stable LSD byte-radix sort of
// refs by Norm, ping-ponging between refs and scratch (same length). It
// reports whether the sorted data ended in scratch.
//
// One counting pass takes the XOR-diff of every norm against the first
// and all eight digit histograms at once. A byte column the diff shows
// constant — the upper columns of a narrow domain, every column of a
// constant input — costs no distribution pass, so few-distinct and
// small-domain inputs finish in one or two passes and the norm's
// significant width never has to be passed in. The tables are uint32
// (8 KiB, on the stack): SortNormRefs bounds len(refs) by what Idx can
// address.
func radixNormRefs(refs, scratch []NormRef) (inScratch bool) {
	if len(refs) <= 2*insertionCutoff {
		insertionSort(refs, normRefLess)
		return false
	}
	var counts [maxRadixPasses][1 << radixBits]uint32
	first := refs[0].Norm
	var diff uint64
	for i := range refs {
		k := refs[i].Norm
		diff |= k ^ first
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	src, dst := refs, scratch
	for d := 0; d < maxRadixPasses; d++ {
		shift := uint(radixBits * d)
		if byte(diff>>shift) == 0 {
			continue
		}
		starts := &counts[d]
		var pos uint32
		for v, c := range starts {
			starts[v] = pos
			pos += c
		}
		for _, r := range src {
			v := byte(r.Norm >> shift)
			dst[starts[v]] = r
			starts[v]++
		}
		src, dst = dst, src
		inScratch = !inScratch
	}
	return inScratch
}

// SortEqualNormRefs finishes a SortNormRefs whose norm is monotone but
// not injective (an 8-byte string prefix): refs sharing a Norm may still
// be out of order under the real keys. It walks the maximal equal-Norm
// runs and stable-sorts each by less, which compares the real keys at two
// chunk positions; ties keep the ascending Idx order the stable radix
// left, so the result is ordered by (key, Idx) exactly as an injective
// norm's is. Cost is proportional to the collided fraction: all-distinct
// norms pay one linear scan and no sort.
func SortEqualNormRefs(refs []NormRef, less func(i, j uint32) bool) {
	byKey := func(a, b NormRef) bool { return less(a.Idx, b.Idx) }
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && refs[j].Norm == refs[i].Norm {
			j++
		}
		if j-i > 1 {
			TimSort(refs[i:j], byKey)
		}
		i = j
	}
}
