package core

import (
	"cmp"
	"fmt"

	"pgxsort/internal/comm"
	"pgxsort/internal/lsort"
)

// Result is a globally sorted, distributed dataset: Parts[i] is processor
// i's sorted slice, and max(Parts[i]) <= min(Parts[i+1]) — "smaller data
// entries are gathered in the processor with the smaller ID" (§IV-C).
// Every entry carries its origin, and the result offers the paper's
// user-facing API: binary search, top-k retrieval and origin lookup.
type Result[K cmp.Ordered] struct {
	Parts  [][]comm.Entry[K]
	Report Report

	// norm is the key order the sort produced the parts in — the
	// engine's norm first, the key on equal norms — which is what Search
	// and Count search by. nil (a Result built by hand) means comm.NormFor's.
	norm func(K) uint64
}

// searchOrder returns an entry's key against a searched key in the order
// the sort produced: for floats that is the IEEE-754 total order, in
// which every NaN has its place and -0 sorts before +0, where `<` orders
// neither.
func (r *Result[K]) searchOrder() func(e comm.Entry[K], k K) int {
	norm := r.norm
	if norm == nil {
		norm, _ = comm.NormFor[K]()
	}
	return func(e comm.Entry[K], k K) int {
		if c := cmp.Compare(norm(e.Key), norm(k)); c != 0 {
			return c
		}
		return cmp.Compare(e.Key, k)
	}
}

// Len returns the total number of entries.
func (r *Result[K]) Len() int {
	n := 0
	for _, p := range r.Parts {
		n += len(p)
	}
	return n
}

// Keys flattens the sorted keys into one slice (intended for small results
// and tests; it allocates Len() keys).
func (r *Result[K]) Keys() []K {
	out := make([]K, 0, r.Len())
	for _, p := range r.Parts {
		for _, e := range p {
			out = append(out, e.Key)
		}
	}
	return out
}

// Cursor returns a pull source over the sorted entries, part by part in
// global order — the streaming egress view of a resident result. It lets
// the serve layer write a result to the wire with the same cursor-driven
// loop it uses for spooled results, without flattening Parts.
func (r *Result[K]) Cursor() lsort.Cursor[comm.Entry[K]] {
	return &partsCursor[K]{parts: r.Parts}
}

// partsCursor yields each non-empty part as one batch.
type partsCursor[K cmp.Ordered] struct {
	parts [][]comm.Entry[K]
}

func (c *partsCursor[K]) Next() ([]comm.Entry[K], error) {
	for len(c.parts) > 0 {
		part := c.parts[0]
		c.parts = c.parts[1:]
		if len(part) > 0 {
			return part, nil
		}
	}
	return nil, nil
}

// Records flattens the sorted dataset into key+payload records (intended
// for small results and tests; it allocates Len() records). Payloads are
// the ones carried by each entry, nil for key-only sorts.
func (r *Result[K]) Records() []comm.Record[K] {
	out := make([]comm.Record[K], 0, r.Len())
	for _, p := range r.Parts {
		for _, e := range p {
			out = append(out, comm.Record[K]{Key: e.Key, Payload: e.Payload})
		}
	}
	return out
}

// At returns the entry at global index i.
func (r *Result[K]) At(i int) (comm.Entry[K], error) {
	if i < 0 {
		return comm.Entry[K]{}, fmt.Errorf("core: index %d out of range", i)
	}
	for _, p := range r.Parts {
		if i < len(p) {
			return p[i], nil
		}
		i -= len(p)
	}
	return comm.Entry[K]{}, fmt.Errorf("core: index out of range")
}

// Search performs the distributed binary search the paper's API exposes:
// it locates the first occurrence of key, returning the owning processor,
// the local index, and the global rank. found is false when key is absent
// (proc/local/global then describe the insertion point). Keys are found
// in the order the sort produced (see searchOrder): a NaN among float keys
// is found where it sorted, and +0 is not -0.
func (r *Result[K]) Search(key K) (proc, local, global int, found bool) {
	order := r.searchOrder()
	below := func(e comm.Entry[K], k K) bool { return order(e, k) < 0 }
	base := 0
	for pi, part := range r.Parts {
		if len(part) == 0 {
			continue
		}
		if below(part[len(part)-1], key) {
			base += len(part)
			continue
		}
		idx := lsort.LowerBound(part, key, below)
		found := idx < len(part) && order(part[idx], key) == 0
		return pi, idx, base + idx, found
	}
	return len(r.Parts), 0, base, false
}

// Count returns how many entries equal key in the sort's order.
func (r *Result[K]) Count(key K) int {
	order := r.searchOrder()
	below := func(e comm.Entry[K], k K) bool { return order(e, k) < 0 }
	above := func(e comm.Entry[K], k K) bool { return order(e, k) > 0 }
	total := 0
	for _, part := range r.Parts {
		total += lsort.UpperBound(part, key, above) - lsort.LowerBound(part, key, below)
	}
	return total
}

// Top returns the k largest entries in descending order ("retrieving top
// values from their graph data", §III).
func (r *Result[K]) Top(k int) []comm.Entry[K] {
	if k < 0 {
		k = 0
	}
	out := make([]comm.Entry[K], 0, k)
	for pi := len(r.Parts) - 1; pi >= 0 && len(out) < k; pi-- {
		part := r.Parts[pi]
		for i := len(part) - 1; i >= 0 && len(out) < k; i-- {
			out = append(out, part[i])
		}
	}
	return out
}

// Bottom returns the k smallest entries in ascending order.
func (r *Result[K]) Bottom(k int) []comm.Entry[K] {
	if k < 0 {
		k = 0
	}
	out := make([]comm.Entry[K], 0, k)
	for _, part := range r.Parts {
		for _, e := range part {
			if len(out) >= k {
				return out
			}
			out = append(out, e)
		}
	}
	return out
}

// Quantiles returns m+1 keys summarizing the sorted distribution: the
// minimum, the m-1 internal quantile boundaries, and the maximum. It uses
// the distributed result in place (no flattening).
func (r *Result[K]) Quantiles(m int) ([]K, error) {
	if m < 1 {
		return nil, fmt.Errorf("core: quantile count must be >= 1")
	}
	n := r.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty result has no quantiles")
	}
	out := make([]K, m+1)
	for q := 0; q <= m; q++ {
		idx := q * (n - 1) / m
		e, err := r.At(idx)
		if err != nil {
			return nil, err
		}
		out[q] = e.Key
	}
	return out, nil
}

// PartRange describes one processor's key range after sorting (Table III).
type PartRange[K cmp.Ordered] struct {
	Proc  int
	Count int
	Min   K
	Max   K
}

// PartRanges reports each non-empty processor's [min, max] key range.
func (r *Result[K]) PartRanges() []PartRange[K] {
	out := make([]PartRange[K], 0, len(r.Parts))
	for pi, part := range r.Parts {
		pr := PartRange[K]{Proc: pi, Count: len(part)}
		if len(part) > 0 {
			pr.Min = part[0].Key
			pr.Max = part[len(part)-1].Key
		}
		out = append(out, pr)
	}
	return out
}

// Verify checks the full contract of the distributed sort against the
// original inputs: every part is sorted, parts are globally ordered —
// both in the order the sort produced (see searchOrder) — and the origin
// fields describe a perfect permutation of the input
// (every (proc,index) appears exactly once and carries its input key, bit
// for bit where the sort's order tells keys apart that == does not).
func (r *Result[K]) Verify(inputs [][]K) error {
	total := 0
	for _, in := range inputs {
		total += len(in)
	}
	if got := r.Len(); got != total {
		return fmt.Errorf("core: result has %d entries, input had %d", got, total)
	}
	seen := make([]bool, total)
	// offsets into the seen bitmap per origin proc
	offsets := make([]int, len(inputs)+1)
	for i, in := range inputs {
		offsets[i+1] = offsets[i] + len(in)
	}
	order := r.searchOrder()
	var prev *comm.Entry[K]
	for pi, part := range r.Parts {
		for i, e := range part {
			if i > 0 && order(part[i-1], e.Key) > 0 {
				return fmt.Errorf("core: part %d not sorted at %d", pi, i)
			}
			if i == 0 && prev != nil && order(*prev, e.Key) > 0 {
				return fmt.Errorf("core: global order violated entering part %d", pi)
			}
			op := int(e.Proc)
			oi := int(e.Index)
			if op >= len(inputs) || oi >= len(inputs[op]) {
				return fmt.Errorf("core: entry in part %d has origin (%d,%d) out of range", pi, op, oi)
			}
			// The key must be its input's as the sort orders keys, which
			// tells -0 from +0 and one NaN from another, where == cannot.
			if in := inputs[op][oi]; order(e, in) != 0 {
				return fmt.Errorf("core: entry key %v does not match input[%d][%d]=%v",
					e.Key, op, oi, in)
			}
			flat := offsets[op] + oi
			if seen[flat] {
				return fmt.Errorf("core: origin (%d,%d) appears twice", op, oi)
			}
			seen[flat] = true
		}
		if len(part) > 0 {
			prev = &part[len(part)-1]
		}
	}
	return nil
}
