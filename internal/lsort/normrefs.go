package lsort

import (
	"math"
	"math/bits"
	"sync"

	"pgxsort/internal/comm"
)

// NormRef stands in for one element of a buffer while the engine sorts
// (step 1) or merges (step 6) it: Norm is the element's key under an
// order-preserving map onto uint64 (comm.KeyNormalizer) and Idx its
// position in the buffer. Ordering the 16-byte refs instead of the
// elements moves two words per radix pass or merge round whatever the
// element carries; the caller gathers the elements once, in the order the
// Idx column names. It is comm's type, so a key-only sort's refs travel
// through the exchange as they are (comm.Message.Refs).
type NormRef = comm.NormRef

func normRefLess(a, b NormRef) bool { return a.Norm < b.Norm }

// mergeNormRefs is mergeInto for refs under normRefLess — same output,
// left run first on ties — with no less call and, where the runs
// interleave, no data-dependent branch. On unpredictable input a merge
// loop is bound by its mispredicted "which run is next" branch; selecting
// by mask instead is bound by the load-compare-advance chain, so the main
// loop runs two such chains at once: each iteration emits the smallest
// remaining ref at the front of dst and the largest at its back (the
// larger goes last; on a tie that is b's). Where one run wins for a whole
// block the branch would have predicted after all, and a plain loop
// follows the streak to its end. What the main loop leaves (it needs two
// refs in each run) is merged by the plain loop, and a pair already in
// order is two copies.
func mergeNormRefs(dst, a, b []NormRef) {
	dst = dst[:len(a)+len(b)]
	if len(a) == 0 || len(b) == 0 || b[0].Norm >= a[len(a)-1].Norm {
		copy(dst[copy(dst, a):], b)
		return
	}
	i, j, kf := 0, 0, 0
	ie, je, kb := len(a)-1, len(b)-1, len(dst)-1
	fromB := 0
	// Both runs hold two refs or more: the front step and the back step
	// each find one in both.
	for s := 1; i < ie && j < je; s++ {
		x, y := a[i], b[j]
		t := 0
		if y.Norm < x.Norm {
			t = 1
		}
		m := -uint64(t)
		dst[kf] = NormRef{Norm: x.Norm ^ (x.Norm^y.Norm)&m, Idx: x.Idx ^ (x.Idx^y.Idx)&uint32(m)}
		i += 1 - t
		j += t
		fromB += t
		kf++

		x, y = a[ie], b[je]
		u := 0
		if y.Norm < x.Norm {
			u = 1
		}
		m = -uint64(u)
		dst[kb] = NormRef{Norm: y.Norm ^ (x.Norm^y.Norm)&m, Idx: y.Idx ^ (x.Idx^y.Idx)&uint32(m)}
		ie -= u
		je -= 1 - u
		kb--

		if s&31 == 0 {
			// A block of front steps won by one run throughout is a
			// streak (a long tie, disjoint stretches): there the branch
			// predicts, so follow it with one until it ends.
			switch fromB {
			case 0:
				for i < ie && a[i].Norm <= b[j].Norm {
					dst[kf] = a[i]
					i++
					kf++
				}
			case 32:
				for j < je && b[j].Norm < a[i].Norm {
					dst[kf] = b[j]
					j++
					kf++
				}
			}
			fromB = 0
		}
	}
	a, b, dst = a[i:ie+1], b[j:je+1], dst[kf:kb+1]
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Norm < a[i].Norm {
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

// coRankNormRefs is CoRank for refs under normRefLess.
func coRankNormRefs(d int, a, b []NormRef) (i, j int) {
	lo, hi := max(d-len(b), 0), min(d, len(a))
	for {
		i = int(uint(lo+hi) >> 1)
		j = d - i
		if i > 0 && j < len(b) && b[j].Norm < a[i-1].Norm {
			hi = i - 1
			continue
		}
		if j > 0 && i < len(a) && b[j-1].Norm >= a[i].Norm {
			lo = i + 1
			continue
		}
		return i, j
	}
}

// MergeNormRefRuns is MergeAdjacentRunsOwned for refs ordered by Norm:
// the same rounds of Figure 2, the same left-run-first tie rule in every
// merge and split, over a two-run kernel that calls no function per
// comparison. Runs whose refs carry ascending Idx from one run to the next
// therefore merge into (Norm, Idx) order, which is how the engine's step 6
// keeps source order, then arrival order, among equal keys without ever
// comparing them.
func MergeNormRefRuns(refs, scratch []NormRef, bounds []int, parallel bool) (out []NormRef, fromScratch bool) {
	return balancedMerge(refs, scratch, bounds, parallel,
		pairKernel[NormRef]{merge: mergeNormRefs, coRank: coRankNormRefs})
}

// SortNormRefs sorts refs by Norm and returns the sorted refs, which
// alias refs or scratch — whichever the last pass wrote; the other holds
// garbage. scratch must have at least len(refs) elements.
//
// The sort is stable. Refs built in position order therefore come out
// ordered by (Norm, Idx) — the local form of ordering by key then
// provenance — and the result is the same for every workers: data is
// divided equally among the workers as in the paper's step 1, each chunk
// is radix-sorted (radixNormRefs), and the chunks are combined by the
// balanced merging handler of Figure 2 (MergeNormRefRuns), whose merges
// and co-rank splits keep left-run-first tie order.
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
		return radixNormRefs(refs, scratch, nil)
	}
	workers = min(workers, n)
	bounds := chunkBounds(n, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(chunk, chunkScratch []NormRef) {
			defer wg.Done()
			radixNormRefs(chunk, chunkScratch, chunk)
		}(refs[bounds[i]:bounds[i+1]], scratch[bounds[i]:bounds[i+1]])
	}
	wg.Wait()
	out, _ := MergeNormRefRuns(refs, scratch, bounds, true)
	return out
}

// refDigitBits is the widest digit radixNormRefs takes (2048 buckets, two
// 8 KiB histograms on the stack): two tell apart a worker chunk of up to 2^18
// refs, where 8-bit digits need three and measured slower (CHANGES.md, PR 21).
const refDigitBits = 11

// insertionCutoff sizes the small cases: up to twice it a ref sort is
// an insertion sort, and an input is not worth splitting among workers.
// 12-24 is the classic sweet spot; 16 benchmarks best here.
const insertionCutoff = 16

// insertionSortNormRefs is a stable insertion sort of refs by Norm.
func insertionSortNormRefs(refs []NormRef) {
	for i := 1; i < len(refs); i++ {
		r, j := refs[i], i
		for ; j > 0 && refs[j-1].Norm > r.Norm; j-- {
			refs[j] = refs[j-1]
		}
		refs[j] = r
	}
}

// radixNormRefs is the sequential kernel: a stable radix sort of refs by
// Norm over the bits that tell the refs apart and no others. It returns
// the sorted refs: in into — refs or scratch (same length) — when the
// caller names one, else in whichever of the two its last pass wrote.
//
// diff, every norm's XOR against the first, has the bits the norms vary
// in, and the top log2(n) + 4 of those tell n refs apart, all but a few.
// So digits are taken from the top of diff, each anchored at the highest
// varying bit not yet covered — constant bits cost nothing wherever they
// lie — until they cover that many varying bits, and are stably scattered
// least significant first; the first is counted in a pass of its own,
// every other during the scatter before it. Digits that cover every
// varying bit make this a plain LSD sort: what a small domain gets.
// Otherwise a walk over the now prefix-ordered refs finishes each group
// sharing a prefix, writing where the caller wants the result: a few refs
// are insertion-sorted, a larger group recurses with the other buffer's
// same range as scratch. Its diff lies below the digits already taken, so
// every level consumes a digit's bits or more; a digit is no wider than
// log2(n) bits, so a small group pays for a small histogram. Scatters,
// insertion and the in-order walk are all stable.
func radixNormRefs(refs, scratch, into []NormRef) []NormRef {
	n := len(refs)
	src, dst := refs, scratch
	var low uint    // the lowest bit a digit covers
	var rest uint64 // diff, then diff below low: the bits left to the walk
	if n <= 2*insertionCutoff {
		insertionSortNormRefs(refs)
	} else {
		for i := range refs {
			rest |= refs[i].Norm ^ refs[0].Norm
		}
	}
	if rest != 0 {
		var shifts [8]uint // a level stops at eight digits, sparse as the varying bits may be
		digits, logn := 0, bits.Len(uint(n-1))
		w := min(refDigitBits, logn)
		mask := uint64(1)<<w - 1
		for need := logn + 4; rest != 0 && need > 0 && digits < len(shifts); digits++ {
			low = uint(max(bits.Len64(rest)-w, 0))
			need -= bits.OnesCount64(rest >> low)
			rest &= 1<<low - 1
			shifts[digits] = low
		}
		var counts [2][1 << refDigitBits]uint32
		for i := range refs {
			counts[(digits-1)&1][refs[i].Norm>>low&mask]++
		}
		for d := digits - 1; d >= 0; d-- {
			starts, next := &counts[d&1], &counts[d&1^1]
			var pos uint32
			for v, c := range starts[:mask+1] {
				starts[v] = pos
				pos += c
			}
			clear(next[:mask+1])
			shift := shifts[d]
			if d == 0 {
				for _, r := range src {
					v := r.Norm >> shift & mask
					dst[starts[v]] = r
					starts[v]++
				}
			} else {
				nextShift := shifts[d-1]
				for _, r := range src {
					v := r.Norm >> shift & mask
					dst[starts[v]] = r
					starts[v]++
					next[r.Norm>>nextShift&mask]++
				}
			}
			src, dst = dst, src
		}
	}
	if len(into) == 0 {
		into = src
	}
	move := n > 0 && &into[0] != &src[0]
	done := 0
	for i := 1; i < n && rest != 0; i++ {
		if (src[i].Norm^src[i-1].Norm)>>low != 0 {
			continue
		}
		g := i - 1
		for i < n && (src[i].Norm^src[g].Norm)>>low == 0 {
			i++
		}
		if i-g <= 2*insertionCutoff {
			insertionSortNormRefs(src[g:i])
			continue
		}
		if move {
			copy(into[done:g], src[done:g])
		}
		radixNormRefs(src[g:i], dst[g:i], into[g:i])
		done = i
	}
	if move {
		copy(into[done:], src[done:])
	}
	return into
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
