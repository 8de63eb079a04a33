package lsort

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// chunkCursor yields a run in fixed-size batches, the shape a spill
// RunReader produces.
type chunkCursor struct {
	run   []int
	chunk int
}

func (c *chunkCursor) Next() ([]int, error) {
	if len(c.run) == 0 {
		return nil, nil
	}
	n := min(c.chunk, len(c.run))
	batch := c.run[:n]
	c.run = c.run[n:]
	return batch, nil
}

// TestMergeCursorDifferential checks MergeCursor emits the exact element
// sequence MergeCursors fills, across run counts, run shapes and batch
// sizes — including empty runs and ties (the cursor-index rule).
func TestMergeCursorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(7)
		runs := make([][]int, k)
		total := 0
		for i := range runs {
			n := rng.Intn(40)
			runs[i] = make([]int, n)
			for j := range runs[i] {
				runs[i][j] = rng.Intn(10) // heavy ties
			}
			slices.Sort(runs[i])
			total += n
		}
		less := func(a, b int) bool { return a < b }

		mk := func() []Cursor[int] {
			cs := make([]Cursor[int], k)
			for i := range cs {
				cs[i] = &chunkCursor{run: slices.Clone(runs[i]), chunk: 1 + rng.Intn(5)}
			}
			return cs
		}
		want := make([]int, total)
		n, err := MergeCursors(want, mk(), less)
		if err != nil || n != total {
			t.Fatalf("MergeCursors: n=%d err=%v", n, err)
		}

		mc, err := NewMergeCursor(mk(), nil, less, make([]int, 1+rng.Intn(9)), nil)
		if err != nil {
			t.Fatalf("NewMergeCursor: %v", err)
		}
		var got []int
		for {
			batch, err := mc.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if len(batch) == 0 {
				break
			}
			got = append(got, batch...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: MergeCursor diverged from MergeCursors\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

// errCursor fails after yielding its run.
type errCursor struct {
	run  []int
	sent bool
}

func (c *errCursor) Next() ([]int, error) {
	if !c.sent {
		c.sent = true
		return c.run, nil
	}
	return nil, errors.New("disk gone")
}

func TestMergeCursorError(t *testing.T) {
	cs := []Cursor[int]{
		&errCursor{run: []int{1, 3}},
		&chunkCursor{run: []int{2, 4}, chunk: 2},
	}
	mc, err := NewMergeCursor(cs, nil, func(a, b int) bool { return a < b }, make([]int, 8), nil)
	if err != nil {
		t.Fatalf("NewMergeCursor: %v", err)
	}
	var got []int
	var lastErr error
	for {
		batch, err := mc.Next()
		got = append(got, batch...)
		if err != nil {
			lastErr = err
			break
		}
		if len(batch) == 0 {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("error cursor's failure never surfaced")
	}
	// Elements popped before the failure must have arrived in order.
	if !slices.IsSorted(got) {
		t.Fatalf("pre-error output out of order: %v", got)
	}
}
