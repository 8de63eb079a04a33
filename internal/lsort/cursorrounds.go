package lsort

import "math/bits"

// roundRefs is R, how many refs one round of an exact-norm cursor merge
// orders at most: every cursor offers a window of R/k elements, so a
// merge's ref slab is 2·R refs, 128 KiB, however long the cursors' batches
// are (a spilled run of one block hands its whole length out as one
// batch). It needs no tuning: with R from 1024 to 16384 — a window of 256
// to 4096 at k = 4 — BenchmarkMergeCursors' /rounds rows read uniform 5.8,
// 6.3, 6.3, 6.6, 6.1 ms and sorted 3.0, 3.0, 3.1, 2.7, 3.1 ms, and
// BenchmarkBudgetedSort (k = 3 and 4) 7.6, 6.7, 8.0, 7.8, 6.5 ms: flat
// inside the box's run-to-run noise (2-core VM, 2026-10-03).
const roundRefs = 4096

// roundFanIn is the largest k the rounds merge. A round probes and scans
// every live cursor whatever it ends up taking, and cursors over disjoint
// key ranges — the chunk runs of presorted input — let it take one window,
// R/k elements, for those 2k steps: k²/R steps an element, where the tree
// pays log₂ k matches. BenchmarkMergeCursors' k= rows time both arms either
// side of the cut, in ns an entry (2-core VM, 2026-10-03):
//
//	k                     16    64   128   1024
//	sorted (disjoint)
//	  rounds              11    20    38   2350
//	  tree, cached heads  22    30    28     45
//	uniform
//	  rounds              33    49    45    190
//	  tree, cached heads  63    89   115    153
//
// Up to 64 cursors no shape loses; from 128 the disjoint one does.
const roundFanIn = 64

// MergeRefs is the one place that picks a cursor merge's arm: it returns
// the length of the ref slab a merge of k cursors runs its rounds in
// (NewMergeCursor), and 0 when the loser tree merges them and needs none
// — the norm is not exact, k is above roundFanIn, or fewer than two
// cursors need no merging at all.
func MergeRefs(k int, exact bool) int {
	if !exact || k < 2 || k > roundFanIn {
		return 0
	}
	return 2 * roundRefs
}

// cursorRounds merges cursors under an exact norm a round at a time, with
// the kernel the resident sort uses (mergeNormRefs) and no tree.
//
// One round: every live cursor offers a window, the first min(W, len)
// elements of what is left of its batch. bound is the smallest norm any
// window ends in and b the lowest-indexed cursor whose window ends in it.
// Cursor c <= b contributes its window's prefix with norm <= bound, cursor
// c > b the prefix with norm < bound. What stays behind — the rest of a
// window, what follows it in the batch, batches not pulled yet — orders
// after everything taken under "norm, then cursor, then position": behind
// a cursor below b stay only norms above bound, behind b and the cursors
// above it norms of at least bound, and whatever left with norm bound came
// from b or below. And b's whole window leaves, so a round emits at least
// one element. The prefixes become runs of (norm, c<<shift | position)
// refs as they are found, the runs merge in Figure 2's pairing order, left
// run first on ties — the tree's tie rule — and the elements are gathered
// once, straight from the cursors' live batches.
//
// A batch is valid until its cursor's next Next, so a batch the round
// exhausts is refilled only after the round's gather. Only b's can be: b
// is the lowest cursor whose window ends in bound, so a window below it
// ends above bound and a window above it at bound or above, and neither
// end is taken. And b's last element is the round's last — the largest
// norm, the highest cursor that contributes it, that cursor's last
// position — so the refill comes the moment that element leaves, exactly
// where the tree, which refills a cursor as its batch drains, has it: a
// refill that fails ends both merges after the same element.
type cursorRounds[E any] struct {
	norm   func(*E) uint64
	cur    []Cursor[E]
	live   []roundCursor[E]
	window int  // W
	shift  uint // a ref's Idx is cursor<<shift | position in the window
	// refs is two halves of roundRefs refs: a round's runs are built in
	// the first and ping-pong between the two as they merge.
	refs []NormRef
	// bounds delimits the round's non-empty ref runs, back to back in
	// cursor order.
	bounds []int
	// out is the current round's merged refs; out[:at] are gathered.
	// refill is the cursor whose batch they exhaust, -1 for none.
	out    []NormRef
	at     int
	refill int
}

// roundCursor is one cursor's state in cursorRounds.
type roundCursor[E any] struct {
	batch []E // what is left of the live batch; empty: exhausted
	win   []E // batch as the current round found it: what its refs index
	// head is the norm of batch[0] when headOK: a round that stops short of
	// a window's end has already taken the norm of the element it stopped
	// at, and the next round starts from it, so an element's norm is taken
	// once however many rounds it waits.
	head   uint64
	headOK bool
}

// newCursorRounds primes the rounds: every cursor contributes its first
// batch, in cursor order, as the tree's priming pulls them. It takes up to
// roundRefs cursors (a window of one); newCursorMerge sends it no more
// than roundFanIn.
func newCursorRounds[E any](cursors []Cursor[E], norm func(*E) uint64, refs []NormRef) (*cursorRounds[E], error) {
	k := len(cursors)
	if len(refs) < 2*roundRefs {
		panic("lsort: ref slab shorter than MergeRefs")
	}
	window := roundRefs / k
	m := &cursorRounds[E]{
		norm:   norm,
		cur:    cursors,
		live:   make([]roundCursor[E], k),
		window: window,
		shift:  uint(bits.Len(uint(window - 1))),
		refs:   refs,
		bounds: make([]int, 1, k+1), // bounds[0] is 0 in every round
		refill: -1,
	}
	for c := range cursors {
		if err := m.fill(c); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// fill pulls cursor c's next batch; a zero-length batch marks the stream
// exhausted per the Cursor contract.
func (m *cursorRounds[E]) fill(c int) error {
	batch, err := m.cur[c].Next()
	if err != nil {
		return err
	}
	m.live[c].batch, m.live[c].headOK = batch, false
	return nil
}

// pop implements cursorMerge, across as many rounds — or as small a part
// of one — as filling dst takes.
func (m *cursorRounds[E]) pop(dst []E) (int, error) {
	n := 0
	for n < len(dst) {
		if m.at == len(m.out) && !m.round() {
			break
		}
		take := min(len(m.out)-m.at, len(dst)-n)
		live, shift, mask := m.live, m.shift, uint32(1)<<m.shift-1
		for j, r := range m.out[m.at : m.at+take] {
			dst[n+j] = live[r.Idx>>shift].win[r.Idx&mask]
		}
		n += take
		m.at += take
		if c := m.refill; c >= 0 && m.at == len(m.out) {
			m.refill = -1
			if err := m.fill(c); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// round selects, refs and merges the next round into out, and reports
// whether there was one: false once every cursor is exhausted. The
// previous round must be gathered to its end. It allocates nothing.
func (m *cursorRounds[E]) round() bool {
	b, bound := -1, uint64(0)
	for c := range m.live {
		if batch := m.live[c].batch; len(batch) > 0 {
			if last := m.norm(&batch[min(m.window, len(batch))-1]); b < 0 || last < bound {
				b, bound = c, last
			}
		}
	}
	if b < 0 {
		return false
	}

	src, dst := m.refs[:roundRefs], m.refs[roundRefs:]
	bounds, n := m.bounds[:1], 0
	for c := range m.live {
		lc := &m.live[c]
		lim := bound
		if c > b {
			if bound == 0 {
				break // nothing is below it
			}
			lim--
		}
		if len(lc.batch) == 0 {
			continue
		}
		w := lc.batch[:min(m.window, len(lc.batch))]
		nm := lc.head
		if !lc.headOK {
			nm = m.norm(&w[0])
		}
		base, i := uint32(c)<<m.shift, 0
		for nm <= lim {
			src[n] = NormRef{Norm: nm, Idx: base | uint32(i)}
			n++
			if i++; i == len(w) {
				break
			}
			nm = m.norm(&w[i])
		}
		lc.head, lc.headOK = nm, i < len(w)
		if i == 0 {
			continue
		}
		bounds = append(bounds, n)
		lc.win, lc.batch = lc.batch, lc.batch[i:]
	}

	// Figure 2's pairing, sequentially: a run without a partner merges
	// with an empty one, which is a copy.
	runs := len(bounds) - 1
	for step := 1; step < runs; step *= 2 {
		for i := 0; i < runs; i += 2 * step {
			lo, mid, hi := bounds[i], bounds[min(i+step, runs)], bounds[min(i+2*step, runs)]
			mergeNormRefs(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	m.out, m.at = src[:n], 0
	if len(m.live[b].batch) == 0 {
		m.refill = b
	}
	return true
}
