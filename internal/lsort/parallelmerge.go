package lsort

import (
	"runtime"
	"sync"
)

// CoRank finds the split point (i, j) with i+j = d where the *stable*
// merge path of a and b (the one mergeInto walks: on ties the element
// from a is emitted first) crosses diagonal d, so merging a[:i] with
// b[:j] and a[i:] with b[j:] separately reproduces mergeInto's output
// exactly — tie groups included. It runs in O(log min(len(a), len(b), d)).
func CoRank[E any](d int, a, b []E, less func(x, y E) bool) (i, j int) {
	lo := d - len(b)
	if lo < 0 {
		lo = 0
	}
	hi := d
	if hi > len(a) {
		hi = len(a)
	}
	for {
		i = int(uint(lo+hi) >> 1)
		j = d - i
		if i > 0 && j < len(b) && less(b[j], a[i-1]) {
			// a[i-1] belongs after b[j]: too many taken from a.
			hi = i - 1
			continue
		}
		if j > 0 && i < len(a) && !less(b[j-1], a[i]) {
			// b[j-1] does not precede a[i], so the stable path emits
			// a[i] before it: too few taken from a. (A plain
			// less(a[i], b[j-1]) test here would tolerate ties on the
			// boundary and let equal elements of b jump ahead of a's.)
			lo = i + 1
			continue
		}
		return i, j
	}
}

// parallelMerge merges the sorted runs a and b into dst (which must
// have length len(a)+len(b)) using `ways` concurrent segment merges split
// along merge-path diagonals. It extends the paper's balanced merging
// handler to the last rounds of Figure 2, where there are fewer pending
// merges than worker threads and pairwise parallelism alone runs dry.
//
// The merge is stable like kern.merge — on ties the element from a is
// emitted first — because kern.coRank splits along the stable merge path,
// so the output is byte-identical to the sequential merge regardless of
// ways. The spill tier depends on this: a budget-chunked sort followed by
// a stable streaming merge must reproduce the in-memory order exactly.
func parallelMerge[E any](dst, a, b []E, ways int, kern pairKernel[E]) {
	total := len(a) + len(b)
	if len(dst) < total {
		panic("lsort: parallelMerge dst too small")
	}
	if ways < 1 {
		ways = 1
	}
	if ways > total {
		ways = total
	}
	if ways == 1 || total < 4096 {
		kern.merge(dst, a, b)
		return
	}
	var wg sync.WaitGroup
	prevI, prevJ := 0, 0
	for k := 1; k <= ways; k++ {
		var i, j int
		if k == ways {
			i, j = len(a), len(b)
		} else {
			i, j = kern.coRank(k*total/ways, a, b)
		}
		segA := a[prevI:i]
		segB := b[prevJ:j]
		segDst := dst[prevI+prevJ : i+j]
		wg.Add(1)
		go func() {
			defer wg.Done()
			kern.merge(segDst, segA, segB)
		}()
		prevI, prevJ = i, j
	}
	wg.Wait()
}

// mergeWays is the segment count used when the balanced handler falls back
// to intra-merge parallelism in its last rounds.
func mergeWays() int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		return 2
	}
	return w
}
