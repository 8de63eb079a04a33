package sample

import "pgxsort/internal/lsort"

// Ranges describes how one processor's sorted local data is cut into p
// contiguous ranges, one per destination processor: destination d receives
// data[Bounds[d]:Bounds[d+1]]. Because the local data is sorted and the
// ranges are contiguous and ordered, any such cut preserves global order.
type Ranges struct {
	Bounds []int // length p+1; Bounds[0]=0, Bounds[p]=len(data)
}

// Range returns the half-open local interval destined for processor d.
func (r Ranges) Range(d int) (lo, hi int) { return r.Bounds[d], r.Bounds[d+1] }

// Counts returns the number of elements destined for each processor.
func (r Ranges) Counts() []int {
	out := make([]int, len(r.Bounds)-1)
	for i := range out {
		out[i] = r.Bounds[i+1] - r.Bounds[i]
	}
	return out
}

// NumDests returns the number of destination processors.
func (r Ranges) NumDests() int { return len(r.Bounds) - 1 }

// Partition implements step 4 of the pipeline: one binary search per
// splitter, each from the previous bound, finds the range of the sorted
// data to send to each destination (Figure 3a); elemGreaterS reports
// whether an element sorts after a splitter. The engine's splitters are
// exact ranks in (key, proc, index) order (SplitterOwners), so a
// duplicated value is divided by rank — the balance the paper's
// investigator (Figure 3c) is for. Bare-key splitters compared on keys
// alone are Figure 3b's naive search.
//
// lessSS, elemBelowS and investigate are ignored. They stay in the
// signature while the benchmark module passes them; ROADMAP item 1(b)
// drops them.
func Partition[E, S any](data []E, splitters []S, lessSS func(a, b S) bool, elemGreaterS func(e E, s S) bool, elemBelowS func(e E, s S) bool, investigate bool) Ranges {
	p := len(splitters) + 1
	bounds := make([]int, p+1)
	bounds[p] = len(data)
	for j, sp := range splitters {
		bounds[j+1] = bounds[j] + lsort.UpperBound(data[bounds[j]:], sp, elemGreaterS)
	}
	return Ranges{Bounds: bounds}
}
