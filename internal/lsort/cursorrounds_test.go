package lsort

import (
	"errors"
	"slices"
	"testing"
)

// scribbleCursor yields a run in fixed-size batches through one reused
// buffer, overwriting the previous batch on every Next — a consumer that
// reads a batch after pulling the next one sees poison, as it would from a
// spill reader's recycled slab — and fails its failOn-th Next (from 0; a
// negative failOn never fails).
type scribbleCursor struct {
	run    []headElem
	batch  int // 0: the whole run at once
	failOn int
	calls  int
	buf    []headElem
}

var errScribble = errors.New("scribbleCursor: injected")

func (c *scribbleCursor) Next() ([]headElem, error) {
	call := c.calls
	c.calls++
	if call == c.failOn {
		return nil, errScribble
	}
	for i := range c.buf {
		c.buf[i] = headElem{key: 1<<64 - 1, cur: -1, pos: -1}
	}
	n := len(c.run)
	if c.batch > 0 {
		n = min(n, c.batch)
	}
	c.buf = append(c.buf[:0], c.run[:n]...)
	c.run = c.run[n:]
	return c.buf, nil
}

// FuzzMergeCursorsRounds holds an exact norm's rounds to the loser tree,
// element for element, count for count and error for error. data deals
// keys from a domain of eight to k = 1..9 cursors, so ties cross cursors,
// rounds and batch boundaries; one cursor is emptied; mul stretches the
// runs past the round window; the batch size is 1, 3, the whole run or
// longer than the window; dst is exact, too short or too long; and one
// cursor may fail one of its Next calls. Both forms must match: filling
// dst, and MergeCursor.Next with batch buffers of 1, 7 and 4096.
func FuzzMergeCursorsRounds(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add([]byte{7, 7, 7, 15, 15, 23, 200, 3, 90, 91, 92}, uint8(2), uint8(0), uint8(0), uint8(0), false)
	f.Add([]byte{1, 9, 17, 25, 33, 41, 49, 57, 65, 73, 81, 89, 2, 10, 18}, uint8(8), uint8(1), uint8(1), uint8(0), false)
	f.Add([]byte{0, 8, 16, 24, 0, 8, 16, 24, 5, 13, 21, 29, 250, 251}, uint8(3), uint8(2), uint8(2), uint8(0x23), false)
	f.Add([]byte{4, 12, 20, 28, 36, 44, 3, 11, 19, 27, 35, 43, 6, 14}, uint8(1), uint8(3), uint8(0), uint8(0), true)
	f.Add([]byte{4, 12, 20, 28, 36, 44, 3, 11, 19, 27, 35, 43, 6, 14}, uint8(5), uint8(3), uint8(1), uint8(0x31), true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(0), uint8(2), uint8(1), uint8(0x10), false)
	f.Fuzz(func(t *testing.T, data []byte, kRaw, batchSel, dstSel, failSel uint8, stretch bool) {
		if len(data) > 64 {
			data = data[:64]
		}
		k := 1 + int(kRaw)%9
		mul := 1
		if stretch {
			mul = roundRefs/k + 37 // every non-empty run outgrows the window
		}
		runs := make([][]headElem, k)
		for _, b := range data {
			c := int(b>>3) % k
			for r := 0; r < mul; r++ {
				runs[c] = append(runs[c], headElem{key: uint64(b & 7), cur: c})
			}
		}
		if k > 1 {
			runs[int(kRaw)/9%k] = nil
		}
		total := 0
		for c := range runs {
			slices.SortStableFunc(runs[c], func(a, b headElem) int { return int(a.key) - int(b.key) })
			for i := range runs[c] {
				runs[c][i].pos = i
			}
			total += len(runs[c])
		}
		batch := []int{1, 3, 0, roundRefs/k + 11}[batchSel%4]
		failCur, failOn := -1, -1
		if failSel != 0 {
			failCur, failOn = int(failSel&15)%k, int(failSel>>4)
		}
		cursors := func() []Cursor[headElem] {
			cs := make([]Cursor[headElem], k)
			for c := range cs {
				sc := &scribbleCursor{run: runs[c], batch: batch, failOn: -1}
				if c == failCur {
					sc.failOn = failOn
				}
				cs[c] = sc
			}
			return cs
		}
		less := func(a, b headElem) bool { return a.key < b.key }
		norm := func(e *headElem) uint64 { return e.key }
		refs := make([]NormRef, MergeRefs(k, true))

		// Filling dst: the rounds' first batch, dst itself, is what the
		// tree fills a dst of its length with, and ends in its error. A
		// lone cursor passes its own batches through, and a merge takes no
		// empty batch: the tree alone fills those.
		dstLen := []int{total, total - min(total, 1+int(failSel)%5), total + 3}[dstSel%3]
		want, got := make([]headElem, dstLen), make([]headElem, dstLen)
		wantN, wantErr := MergeCursors(want, cursors(), less)
		if k > 1 && dstLen > 0 {
			mc, gotErr := NewMergeCursor(cursors(), norm, nil, got, refs)
			gotN := 0
			if gotErr == nil {
				var b []headElem
				b, gotErr = mc.Next()
				if gotN = len(b); gotErr == nil {
					gotErr = mc.err
				}
			}
			if gotN != wantN || gotErr != wantErr {
				t.Fatalf("rounds filled %d (%v), the tree %d (%v)", gotN, gotErr, wantN, wantErr)
			}
			if !slices.Equal(got[:gotN], want[:wantN]) {
				t.Fatalf("rounds diverge from the tree:\n got %v\nwant %v", got[:gotN], want[:wantN])
			}
		}
		for i := 1; i < wantN; i++ {
			if a, b := want[i-1], want[i]; a.key > b.key || a.key == b.key && (a.cur > b.cur || a.cur == b.cur && a.pos > b.pos) {
				t.Fatalf("reference out of (key, cursor, position) order: %+v before %+v", a, b)
			}
		}

		// Pulling batches: everything the tree delivers, then its error.
		want = make([]headElem, total+1)
		wantN, wantErr = MergeCursors(want, cursors(), less)
		for _, batchLen := range []int{1, 7, 4096} {
			got = got[:0]
			mc, err := NewMergeCursor(cursors(), norm, nil, make([]headElem, batchLen), refs)
			for err == nil {
				var b []headElem
				if b, err = mc.Next(); len(b) == 0 {
					break
				}
				got = append(got, b...)
			}
			if err != wantErr {
				t.Fatalf("batches of %d: ended in %v, the tree in %v", batchLen, err, wantErr)
			}
			if !slices.Equal(got, want[:wantN]) {
				t.Fatalf("batches of %d diverge from the tree:\n got %v\nwant %v", batchLen, got, want[:wantN])
			}
			// A priming error leaves no cursor, and one cursor is passed
			// through: what follows its error is its own affair.
			if err != nil && mc != nil && k > 1 {
				if b, again := mc.Next(); len(b) != 0 || again != err {
					t.Fatalf("batches of %d: Next after the error gave %d elements, %v", batchLen, len(b), again)
				}
			}
		}
	})
}

// TestMergeCursorsRoundsAllocate: a round allocates nothing — a merge's
// allocations are its per-merge state and do not grow with the number of
// rounds it runs.
func TestMergeCursorsRoundsAllocate(t *testing.T) {
	const k = 4
	refs := make([]NormRef, MergeRefs(k, true))
	norm := func(e *benchEntry) uint64 { return e.Key }
	allocs := func(per int) float64 {
		runs := make([][]benchEntry, k)
		for c := range runs {
			runs[c] = make([]benchEntry, per)
			for i := range runs[c] {
				runs[c][i].Key = uint64(i*k + c)
			}
		}
		dst := make([]benchEntry, k*per)
		cursors := make([]Cursor[benchEntry], k)
		return testing.AllocsPerRun(10, func() {
			for c := range cursors {
				cursors[c] = &batchCursor[benchEntry]{run: runs[c], batch: 1000}
			}
			mc, err := NewMergeCursor(cursors, norm, nil, dst, refs)
			if err != nil {
				t.Fatal(err)
			}
			if out, err := mc.Next(); len(out) != len(dst) || err != nil {
				t.Fatalf("merged %d of %d: %v", len(out), len(dst), err)
			}
		})
	}
	one, many := allocs(roundRefs/k), allocs(64*roundRefs/k) // 1 round, 64 or more
	if one != many {
		t.Errorf("%v allocations for one round, %v for 64: a round allocates", one, many)
	}
	if perMerge := one - k; perMerge > 4 { // the k cursors are the test's own
		t.Errorf("%v allocations a merge beside its cursors, want the MergeCursor, the rounds' state, its cursor slice and its ints", perMerge)
	}
}

// TestMergeCursorsOverflowRule: every arm stops pulling when dst — for
// MergeCursor, its batch — is full. A single over-long run used to be
// decoded to its end for nothing. A MergeCursor of one cursor passes its
// batches through, so its rounds are tried on two.
func TestMergeCursorsOverflowRule(t *testing.T) {
	run := make([]headElem, 1000)
	for i := range run {
		run[i] = headElem{key: uint64(i), pos: i}
	}
	norm := func(e *headElem) uint64 { return e.key }
	less := func(a, b headElem) bool { return a.key < b.key }
	for _, k := range []int{1, 2} {
		arms := map[string]func(dst []headElem, cs []Cursor[headElem]) (int, error){
			"tree": func(dst []headElem, cs []Cursor[headElem]) (int, error) { return MergeCursors(dst, cs, less) },
		}
		if k > 1 {
			arms["rounds"] = func(dst []headElem, cs []Cursor[headElem]) (int, error) {
				mc, err := NewMergeCursor(cs, norm, nil, dst, make([]NormRef, MergeRefs(k, true)))
				if err != nil {
					return 0, err
				}
				out, err := mc.Next()
				return len(out), err
			}
		}
		for arm, merge := range arms {
			long := &scribbleCursor{run: run, batch: 10, failOn: -1}
			cs := []Cursor[headElem]{long, NewSliceCursor[headElem](nil)}[:k]
			dst := make([]headElem, 25)
			n, err := merge(dst, cs)
			if n != len(dst) || err != nil || !slices.Equal(dst, run[:n]) {
				t.Errorf("k=%d %s: filled %d of %d, %v", k, arm, n, len(dst), err)
			}
			if long.calls != 3 {
				t.Errorf("k=%d %s: %d Next calls to fill 25 elements from batches of 10, want 3", k, arm, long.calls)
			}
		}
	}
}

// TestCursorMergeArm: MergeRefs and newCursorMerge agree on the arm at
// every fan-in and norm kind — rounds for an exact norm up to roundFanIn
// cursors, the tree for more, for an inexact norm and for a bare less.
func TestCursorMergeArm(t *testing.T) {
	norm := func(e *headElem) uint64 { return e.key }
	less := func(a, b headElem) bool { return a.key < b.key }
	for _, k := range []int{2, 4, roundFanIn, roundFanIn + 1, 1333} {
		for _, tc := range []struct {
			name   string
			norm   func(*headElem) uint64
			less   func(a, b headElem) bool
			rounds bool
		}{
			{"exact", norm, nil, k <= roundFanIn},
			{"inexact", norm, less, false},
			{"less", nil, less, false},
		} {
			cs := make([]Cursor[headElem], k)
			for c := range cs {
				cs[c] = NewSliceCursor([]headElem{{key: uint64(c)}})
			}
			slab := MergeRefs(k, tc.norm != nil && tc.less == nil)
			if (slab > 0) != tc.rounds {
				t.Errorf("k=%d %s: MergeRefs = %d, rounds wanted: %v", k, tc.name, slab, tc.rounds)
			}
			m, err := newCursorMerge(cs, tc.norm, tc.less, make([]NormRef, slab))
			if err != nil {
				t.Fatal(err)
			}
			if _, rounds := m.(*cursorRounds[headElem]); rounds != tc.rounds {
				t.Errorf("k=%d %s: built %T", k, tc.name, m)
			}
		}
	}
}
