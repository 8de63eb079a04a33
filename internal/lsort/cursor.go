package lsort

import "errors"

// Cursor is a pull source of sorted elements, batch at a time — the
// streaming counterpart of an in-memory run. Next returns the next batch
// in sorted order; a zero-length batch means the stream is exhausted.
// The returned slice is only valid until the following Next call, so
// consumers must finish (or copy) a batch before pulling the next one.
// Spill run readers implement Cursor over decoded block slabs.
type Cursor[E any] interface {
	Next() ([]E, error)
}

// SliceCursor adapts an in-memory run to the Cursor interface: the whole
// run is handed out as one batch. It lets MergeCursors mix resident and
// spilled runs in a single merge.
type SliceCursor[E any] struct {
	run  []E
	done bool
}

// NewSliceCursor returns a Cursor yielding run as a single batch.
func NewSliceCursor[E any](run []E) *SliceCursor[E] {
	return &SliceCursor[E]{run: run}
}

func (c *SliceCursor[E]) Next() ([]E, error) {
	if c.done {
		return nil, nil
	}
	c.done = true
	return c.run, nil
}

// MergeCursors merges k sorted cursor streams into dst, pulling batches on
// demand so only one batch per cursor is resident at a time. Ordering by a
// less function alone it runs the loser tree (cursorTree). dst is sized
// for the full merged output; the filled prefix length is returned.
//
// The merge is stable: ties are broken by cursor index. The spill tier
// depends on this — merging per-source RunReaders by source order must be
// byte-identical to the stable merge of the same runs held in memory.
//
// On a cursor error the merge stops and returns the elements emitted so
// far along with the error; remaining cursors are left unread. A dst
// shorter than the output ends the merge the moment it is full: what is
// left in the cursors is not pulled. It is a MergeCursor whose batch is
// dst, drained.
func MergeCursors[E any](dst []E, cursors []Cursor[E], less func(x, y E) bool) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	mc, err := NewMergeCursor(cursors, nil, less, dst, nil)
	if err != nil {
		return 0, err
	}
	n := 0
	for n < len(dst) {
		batch, err := mc.Next()
		if err != nil {
			return n, err
		}
		if len(batch) == 0 {
			break
		}
		n += copy(dst[n:], batch) // dst itself but for a lone cursor's batches
	}
	return n, mc.err // an error that came with dst's last elements
}

// KWayMerge merges k sorted runs into a newly allocated slice: MergeCursors
// over slice cursors, one root-to-leaf replay of ceil(log2 k) matches per
// emitted element. It is the natural baseline to ablate against the
// paper's balanced pairwise merging handler (Figure 2): the loser tree does
// fewer total element moves but is strictly sequential, while the balanced
// handler parallelizes every round.
//
// The merge is stable: ties are broken by run index.
func KWayMerge[E any](runs [][]E, less func(x, y E) bool) []E {
	cursors := make([]Cursor[E], 0, len(runs))
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			cursors = append(cursors, NewSliceCursor(r))
			total += len(r)
		}
	}
	out := make([]E, total)
	MergeCursors(out, cursors, less) // slice cursors never fail
	return out
}

// cursorMerge is a primed merge of two cursors or more, whichever arm
// runs it: pop drains it into dst until dst is full or every stream is
// exhausted and returns the count filled; a cursor error surfaces with the
// elements that left before it.
type cursorMerge[E any] interface {
	pop(dst []E) (int, error)
}

// newCursorMerge builds the arm MergeRefs names: rounds over refs where
// it asks for a slab, the loser tree where it asks for none.
func newCursorMerge[E any](cursors []Cursor[E], norm func(*E) uint64, less func(x, y E) bool, refs []NormRef) (cursorMerge[E], error) {
	if MergeRefs(len(cursors), norm != nil && less == nil) > 0 {
		r, err := newCursorRounds(cursors, norm, refs)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
	t, err := newCursorTree(cursors, norm, less)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// MergeCursor merges cursors of elements with an order-preserving uint64
// norm as a pull source, yielding the merged stream batch by batch. It is
// the egress side of a fully out-of-core sort — the final merge of spilled
// runs can stream straight into an HTTP response without a whole-result
// buffer — and every merge of spilled runs the engine makes. Equal norms
// fall to less, which then only has to order elements of equal norm; a
// nil less says the norm is exact (equal norms are equal elements), and a
// nil norm leaves the order to less alone. MergeRefs(len(cursors),
// norm != nil && less == nil) names the arm that runs:
//
//   - a slab (an exact norm, up to roundFanIn cursors): the merge runs in
//     rounds over 16-byte (norm, position) refs (cursorRounds) — the
//     two-run ref kernel of the resident step 6 in Figure 2's pairing
//     order, no tree, no less.
//   - none: the loser tree caches the norm of every cursor's head (norm
//     reads the element in place, once, when it becomes the head) so that
//     a match between different norms moves no element and calls no
//     function; equal heads fall to less or, without one, straight to the
//     cursor-index tie rule.
//
// Either way the stream is the one MergeCursors gives under "norm, then
// less, then cursor index".
type MergeCursor[E any] struct {
	m     cursorMerge[E]
	one   Cursor[E] // k==1 fast path: batches pass through untouched
	batch []E
	err   error
	done  bool
}

// NewMergeCursor merges cursors under norm and less into a Cursor, with
// refs for the rounds: a slab of MergeRefs' length, the caller's to pool
// and account, holding nothing once the merge is done. batch is the
// caller-owned output buffer: each Next fills up to len(batch) elements
// and hands it back, so the caller controls the merge's resident
// granularity; a lone cursor's batches pass through untouched. Priming the
// merge pulls one batch per cursor, which can return a cursor error
// immediately.
func NewMergeCursor[E any](cursors []Cursor[E], norm func(*E) uint64, less func(x, y E) bool, batch []E, refs []NormRef) (*MergeCursor[E], error) {
	switch len(cursors) {
	case 0:
		return &MergeCursor[E]{done: true}, nil
	case 1:
		return &MergeCursor[E]{one: cursors[0]}, nil
	}
	if len(batch) == 0 {
		return nil, errEmptyMergeBatch
	}
	m, err := newCursorMerge(cursors, norm, less, refs)
	if err != nil {
		return nil, err
	}
	return &MergeCursor[E]{m: m, batch: batch}, nil
}

var errEmptyMergeBatch = errors.New("lsort: MergeCursor needs a non-empty batch buffer")

// Next implements Cursor. A cursor error surfaces after the elements
// popped before it; the following Next returns the error itself.
func (c *MergeCursor[E]) Next() ([]E, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.done {
		return nil, nil
	}
	if c.one != nil {
		return c.one.Next()
	}
	n, err := c.m.pop(c.batch)
	if err != nil {
		c.err = err
		if n == 0 {
			return nil, err
		}
		return c.batch[:n], nil
	}
	if n < len(c.batch) {
		c.done = true
	}
	if n == 0 {
		return nil, nil
	}
	return c.batch[:n], nil
}

// newCursorTree primes a loser tree over the cursors: every cursor
// contributes its first batch, and exhausted streams enter the
// tournament as -1 (compares as +infinity).
func newCursorTree[E any](cursors []Cursor[E], norm func(*E) uint64, less func(x, y E) bool) (*cursorTree[E], error) {
	k := len(cursors)
	t := &cursorTree[E]{
		norm: norm,
		less: less,
		cur:  cursors,
		buf:  make([][]E, k),
		pos:  make([]int, k),
		head: make([]uint64, k),
		tree: make([]int, k),
		k:    k,
	}
	winners := make([]int, 2*k)
	for i := 0; i < k; i++ {
		winners[k+i] = i
		if err := t.fill(i); err != nil {
			return nil, err
		}
		if len(t.buf[i]) == 0 {
			winners[k+i] = -1
		}
	}
	for j := k - 1; j >= 1; j-- {
		a, b := winners[2*j], winners[2*j+1]
		if t.beats(a, b) {
			winners[j], t.tree[j] = a, b
		} else {
			winners[j], t.tree[j] = b, a
		}
	}
	t.tree[0] = winners[1]
	return t, nil
}

// pop drains winners into dst until dst is full or every stream is
// exhausted, returning the count filled. A fill error surfaces with the
// elements popped before it.
func (t *cursorTree[E]) pop(dst []E) (int, error) {
	n := 0
	for n < len(dst) {
		w := t.tree[0]
		if w == -1 {
			return n, nil
		}
		dst[n] = t.buf[w][t.pos[w]]
		n++
		t.pos[w]++
		cand := w
		if t.pos[w] >= len(t.buf[w]) {
			if err := t.fill(w); err != nil {
				return n, err
			}
			if len(t.buf[w]) == 0 {
				cand = -1 // stream exhausted
			}
		} else if t.norm != nil {
			t.head[w] = t.norm(&t.buf[w][t.pos[w]])
		}
		for node := (w + t.k) / 2; node >= 1; node /= 2 {
			if t.beats(t.tree[node], cand) {
				t.tree[node], cand = cand, t.tree[node]
			}
		}
		t.tree[0] = cand
	}
	return n, nil
}

// cursorTree is the package's loser tree (tournament tree): a complete
// binary tree over k cursor streams stored in an array, leaf i at k+i,
// internal node j with children 2j and 2j+1 holding the cursor index of the
// loser of the match played there, tree[0] the overall winner and -1 an
// exhausted stream that compares as +infinity. buf/pos hold the live batch
// per cursor; refills happen in the pop path the moment a batch drains, so
// ties go to the lower cursor index whatever the batch boundaries.
//
// head[i] is the norm of cursor i's head element, taken once when the
// element becomes the head (a pop or a fill), so the ⌈log₂ k⌉ matches it
// then plays compare two words. Without a norm every head stays zero and
// every match falls through to less. It is the merge of an inexact norm,
// of a bare less and of more cursors than the rounds take (roundFanIn).
type cursorTree[E any] struct {
	norm func(*E) uint64   // nil: order by less alone
	less func(x, y E) bool // orders equal heads; nil: they are equal elements
	cur  []Cursor[E]
	buf  [][]E
	pos  []int
	head []uint64
	tree []int
	k    int
}

// fill pulls the next batch for cursor i and resets pos; a zero-length
// batch marks the stream exhausted per the Cursor contract.
func (t *cursorTree[E]) fill(i int) error {
	batch, err := t.cur[i].Next()
	if err != nil {
		return err
	}
	t.buf[i] = batch
	t.pos[i] = 0
	if t.norm != nil && len(batch) > 0 {
		t.head[i] = t.norm(&batch[0])
	}
	return nil
}

func (t *cursorTree[E]) beats(a, b int) bool {
	if a == -1 {
		return false
	}
	if b == -1 {
		return true
	}
	if ha, hb := t.head[a], t.head[b]; ha != hb {
		return ha < hb
	}
	if t.less == nil {
		return a < b
	}
	// One less call per match, heads read in place: a wins a tie exactly
	// when it is the lower index, i.e. when b's head is not strictly less.
	if a < b {
		return !t.less(t.buf[b][t.pos[b]], t.buf[a][t.pos[a]])
	}
	return t.less(t.buf[a][t.pos[a]], t.buf[b][t.pos[b]])
}
