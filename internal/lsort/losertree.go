package lsort

// KWayMerge merges k sorted runs into a newly allocated slice using a
// loser tree (tournament tree). It performs one root-to-leaf replay of
// length ceil(log2 k) per emitted element, which makes it the natural
// baseline to ablate against the paper's balanced pairwise merging handler
// (Figure 2): the loser tree does fewer total element moves but is
// strictly sequential, while the balanced handler parallelizes every
// round.
//
// The merge is stable: ties are broken by run index.
func KWayMerge[E any](runs [][]E, less func(x, y E) bool) []E {
	nonEmpty := make([][]E, 0, len(runs))
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			nonEmpty = append(nonEmpty, r)
			total += len(r)
		}
	}
	out := make([]E, 0, total)
	switch len(nonEmpty) {
	case 0:
		return out
	case 1:
		return append(out, nonEmpty[0]...)
	case 2:
		out = out[:total]
		mergeInto(out, nonEmpty[0], nonEmpty[1], less)
		return out
	}
	t := newLoserTree(nonEmpty, less)
	for {
		e, ok := t.pop()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// loserTree is a tournament tree over k runs, stored as a complete binary
// tree in an array: leaves occupy positions k..2k-1 (leaf i at k+i),
// internal node j has children 2j and 2j+1, and tree[j] records the run
// index of the *loser* of the match played at node j. tree[0] holds the
// overall winner. Run index -1 denotes an exhausted run and compares as
// +infinity.
type loserTree[E any] struct {
	less func(x, y E) bool
	runs [][]E
	pos  []int // next unconsumed index per run; -1 len means exhausted
	tree []int // tree[0] = winner, tree[1..k-1] = losers
	k    int
}

func newLoserTree[E any](runs [][]E, less func(x, y E) bool) *loserTree[E] {
	k := len(runs)
	t := &loserTree[E]{
		less: less,
		runs: runs,
		pos:  make([]int, k),
		tree: make([]int, k),
		k:    k,
	}
	// Bottom-up build: winners[j] is the run winning the subtree at node
	// j; the loser of each match is parked in tree[j].
	winners := make([]int, 2*k)
	for i := 0; i < k; i++ {
		winners[k+i] = i
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
	return t
}

// beats reports whether run a's current head should be emitted before run
// b's (stable: lower run index wins ties). An exhausted run never beats
// anything.
func (t *loserTree[E]) beats(a, b int) bool {
	if a == -1 {
		return false
	}
	if b == -1 {
		return true
	}
	// One less call per match, heads read in place: a wins a tie exactly
	// when it is the lower index, i.e. when b's head is not strictly less.
	if a < b {
		return !t.less(t.runs[b][t.pos[b]], t.runs[a][t.pos[a]])
	}
	return t.less(t.runs[a][t.pos[a]], t.runs[b][t.pos[b]])
}

// pop removes and returns the smallest remaining element, then replays the
// matches on the winner's root-to-leaf path.
func (t *loserTree[E]) pop() (E, bool) {
	var zero E
	w := t.tree[0]
	if w == -1 {
		return zero, false
	}
	e := t.runs[w][t.pos[w]]
	t.pos[w]++
	cand := w
	if t.pos[w] >= len(t.runs[w]) {
		cand = -1 // run exhausted
	}
	for node := (w + t.k) / 2; node >= 1; node /= 2 {
		if t.beats(t.tree[node], cand) {
			t.tree[node], cand = cand, t.tree[node]
		}
	}
	t.tree[0] = cand
	return e, true
}
