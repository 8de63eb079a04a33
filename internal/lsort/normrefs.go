package lsort

import (
	"math"
	"math/bits"

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
// provenance — and the result is the same for every workers. From
// parallelRadixCutoff refs on the workers share every pass of one radix
// (parallelRadixNormRefs), each taking an equal slice of the data as in
// the paper's step 1; a stable radix split that way is already one sorted
// run, so no merge follows. Fewer refs, or one worker, take the
// sequential kernel (radixNormRefs).
func SortNormRefs(refs, scratch []NormRef, workers int) []NormRef {
	n := len(refs)
	if len(scratch) < n {
		panic("lsort: ref scratch smaller than data")
	}
	if uint64(n) > math.MaxUint32 {
		panic("lsort: more refs than Idx can address")
	}
	scratch = scratch[:n]
	if workers <= 1 || n < parallelRadixCutoff {
		var h refHist
		return radixNormRefs(refs, scratch, nil, &h)
	}
	return parallelRadixNormRefs(refs, scratch, workers)
}

// refDigitBits is the widest digit a ref radix takes (2048 buckets, an
// 8 KiB histogram): two tell apart a share of up to 2^18 refs, where
// 8-bit digits need three and measured slower (see CHANGES.md).
const refDigitBits = 11

// refHist is a ref radix's two histograms: the counts a scatter reads and
// the next digit's, which it counts into. One serves a whole sort —
// every recursion of radixNormRefs into an equal-prefix group reuses it,
// as a level is done with it before the walk recurses — and a level
// clears only the counters its digit width uses.
type refHist [2][1 << refDigitBits]uint32

// insertionCutoff sizes the small cases: up to twice it a ref sort is
// an insertion sort. 12-24 is the classic sweet spot; 16 benchmarks best
// here.
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

// digitPlan is which bits a ref radix sorts by and which it leaves to the
// equal-prefix walk (finishGroups).
//
// diff, every norm's XOR against the first, has the bits the norms vary
// in, and the top log2(n) + 4 of those tell n refs apart, all but a few.
// So digits are taken from the top of diff, each anchored at the highest
// varying bit not yet covered — constant bits cost nothing wherever they
// lie — until they cover that many varying bits. A digit is no wider than
// log2(n) bits, so a small group pays for a small histogram.
type digitPlan struct {
	// shifts holds each digit's lowest bit, the most significant digit
	// first; a level stops at eight, sparse as the varying bits may be.
	shifts [8]uint
	digits int
	mask   uint64 // a digit's bits, shifted down
	low    uint   // the lowest bit a digit covers
	rest   uint64 // the varying bits below low: what the walk finishes
}

func planDigits(diff uint64, n int) digitPlan {
	p := digitPlan{rest: diff}
	logn := bits.Len(uint(n - 1))
	w := min(refDigitBits, logn)
	p.mask = 1<<w - 1
	for need := logn + 4; p.rest != 0 && need > 0 && p.digits < len(p.shifts); p.digits++ {
		p.low = uint(max(bits.Len64(p.rest)-w, 0))
		need -= bits.OnesCount64(p.rest >> p.low)
		p.rest &= 1<<p.low - 1
		p.shifts[p.digits] = p.low
	}
	return p
}

// radixNormRefs is the sequential kernel: a stable radix sort of refs by
// Norm over the bits that tell the refs apart and no others. It returns
// the sorted refs: in into — refs or scratch (same length) — when the
// caller names one, else in whichever of the two its last pass wrote.
// counts is the sort's histograms, whatever they held.
//
// The digits of planDigits are stably scattered least significant first;
// the first is counted in a pass of its own, every other during the
// scatter before it. Digits that cover every varying bit make this a
// plain LSD sort: what a small domain gets. Otherwise finishGroups
// finishes each group sharing a prefix. Scatters, insertion and the
// in-order walk are all stable.
func radixNormRefs(refs, scratch, into []NormRef, counts *refHist) []NormRef {
	n := len(refs)
	src, dst := refs, scratch
	var plan digitPlan
	if n <= 2*insertionCutoff {
		insertionSortNormRefs(refs)
	} else {
		var diff uint64
		for i := range refs {
			diff |= refs[i].Norm ^ refs[0].Norm
		}
		plan = planDigits(diff, n)
	}
	if plan.digits > 0 {
		mask, digits := plan.mask, plan.digits
		first := counts[(digits-1)&1][:mask+1]
		clear(first)
		for i := range refs {
			first[refs[i].Norm>>plan.low&mask]++
		}
		for d := digits - 1; d >= 0; d-- {
			starts, next := &counts[d&1], &counts[d&1^1]
			var pos uint32
			for v, c := range starts[:mask+1] {
				starts[v] = pos
				pos += c
			}
			clear(next[:mask+1])
			shift := plan.shifts[d]
			if d == 0 {
				for _, r := range src {
					v := r.Norm >> shift & mask
					dst[starts[v]] = r
					starts[v]++
				}
			} else {
				nextShift := plan.shifts[d-1]
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
	finishGroups(src, dst, into, &plan, counts)
	return into
}

// finishGroups is the walk that finishes a radix by plan: src is ordered
// by every bit from plan.low up, and each group of refs sharing those
// bits is finished and lands in into — src itself or dst, the other
// buffer's same range — while the rest is copied there. A few refs are
// insertion-sorted, a larger group recurses with dst's same range as
// scratch and counts as its histograms: its diff lies below the digits
// already taken, so every level consumes a digit's bits or more.
func finishGroups(src, dst, into []NormRef, plan *digitPlan, counts *refHist) {
	n := len(src)
	move := n > 0 && &into[0] != &src[0]
	done := 0
	for i := 1; i < n && plan.rest != 0; i++ {
		if (src[i].Norm^src[i-1].Norm)>>plan.low != 0 {
			continue
		}
		g := i - 1
		for i < n && (src[i].Norm^src[g].Norm)>>plan.low == 0 {
			i++
		}
		if i-g <= 2*insertionCutoff {
			insertionSortNormRefs(src[g:i])
			continue
		}
		if move {
			copy(into[done:g], src[done:g])
		}
		radixNormRefs(src[g:i], dst[g:i], into[g:i], counts)
		done = i
	}
	if move {
		copy(into[done:], src[done:])
	}
}

// SortEqualNormRefs finishes a SortNormRefs whose norm is monotone but
// not injective (an 8-byte string prefix): refs sharing a Norm may still
// be out of order under the real keys. It walks the maximal equal-Norm
// runs and stable-sorts each by less, which compares the real keys at two
// Idx values; ties keep the ascending Idx order the stable radix
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
