package lsort

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"pgxsort/internal/dist"
)

// refsOf builds the refs of a chunk in position order, as step 1 does.
func refsOf(norms []uint64) []NormRef {
	refs := make([]NormRef, len(norms))
	for i, k := range norms {
		refs[i] = NormRef{Norm: k, Idx: uint32(i)}
	}
	return refs
}

// checkSortNormRefs sorts norms' refs with every worker count and holds
// each result to slices.SortStableFunc by Norm: Idx is the stability
// witness, so one comparison checks order, stability and independence of
// the worker count.
func checkSortNormRefs(t *testing.T, norms []uint64, workerCounts ...int) {
	t.Helper()
	want := refsOf(norms)
	slices.SortStableFunc(want, func(a, b NormRef) int { return cmp.Compare(a.Norm, b.Norm) })
	for _, workers := range workerCounts {
		refs := refsOf(norms)
		got := SortNormRefs(refs, make([]NormRef, len(refs)), workers)
		if !slices.Equal(got, want) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d n=%d: ref %d is %+v, want %+v", workers, len(norms), i, got[i], want[i])
				}
			}
			t.Fatalf("workers=%d: %d refs out, want %d", workers, len(got), len(want))
		}
	}
}

// TestSortNormRefsKinds covers every distribution kind — the low-entropy
// ones exercise the constant-column skip — at lengths around the
// insertion-sort and parallel thresholds, across worker counts.
func TestSortNormRefsKinds(t *testing.T) {
	lengths := []int{0, 1, 2, 2*insertionCutoff - 1, 2 * insertionCutoff, 2*insertionCutoff + 1, 4097, 60000}
	for _, kind := range dist.AllKinds {
		for _, n := range lengths {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				checkSortNormRefs(t, dist.Gen{Kind: kind, Seed: 17}.Keys(n), 0, 1, 2, 3, 4, 8)
			})
		}
	}
}

// TestSortNormRefsColumnSkip pins which buffer the sorted refs come back
// in: one distribution pass per varying byte column ping-pongs refs and
// scratch, so the parity of the varying columns decides it. A kernel that
// stopped skipping constant columns would flip the answer.
func TestSortNormRefsColumnSkip(t *testing.T) {
	const n = 1000
	cases := []struct {
		name      string
		norm      func(i int) uint64
		inScratch bool
	}{
		{"constant", func(int) uint64 { return 0xABCDEF }, false},
		{"one-low-column", func(i int) uint64 { return 7<<56 | uint64(i%251) }, true},
		{"top-byte-only", func(i int) uint64 { return uint64(i%256)<<56 | 0x1234 }, true},
		{"two-columns", func(i int) uint64 { return uint64(i%256)<<56 | uint64(i%97) }, false},
		{"all-eight", func(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }, false},
	}
	for _, tc := range cases {
		norms := make([]uint64, n)
		for i := range norms {
			norms[i] = tc.norm(n - i)
		}
		refs, scratch := refsOf(norms), make([]NormRef, n)
		got := SortNormRefs(refs, scratch, 1)
		if inScratch := &got[0] == &scratch[0]; inScratch != tc.inScratch {
			t.Errorf("%s: result in scratch = %v, want %v", tc.name, inScratch, tc.inScratch)
		}
		checkSortNormRefs(t, norms, 1, 2)
	}
}

func TestSortNormRefsUndersizedScratchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized scratch did not panic")
		}
	}()
	SortNormRefs(refsOf([]uint64{3, 2, 1}), make([]NormRef, 1), 1)
}

// TestSortEqualNormRefs: an inexact norm (here the key's top byte) leaves
// equal-norm runs for the real comparison; the fix-up must order them by
// key and keep ties in position order.
func TestSortEqualNormRefs(t *testing.T) {
	keys := dist.Gen{Kind: dist.FewDistinct, Seed: 23}.Keys(20000)
	for i := range keys {
		keys[i] = keys[i]<<40 | uint64(i%3)
	}
	norms := make([]uint64, len(keys))
	for i, k := range keys {
		norms[i] = k >> 56
	}
	want := refsOf(norms)
	slices.SortStableFunc(want, func(a, b NormRef) int { return cmp.Compare(keys[a.Idx], keys[b.Idx]) })
	for _, workers := range []int{1, 2, 4} {
		refs := refsOf(norms)
		got := SortNormRefs(refs, make([]NormRef, len(refs)), workers)
		SortEqualNormRefs(got, func(i, j uint32) bool { return keys[i] < keys[j] })
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d: fix-up diverges from the stable sort by key", workers)
		}
	}
}

// FuzzSortNormRefs holds SortNormRefs to the stable reference on
// arbitrary norms of every significant width (narrow widths leave
// constant upper columns to skip), every worker count, and lengths around
// the insertion-sort and parallel thresholds.
func FuzzSortNormRefs(f *testing.F) {
	pack := func(norms ...uint64) []byte {
		b := make([]byte, 8*len(norms))
		for i, k := range norms {
			binary.LittleEndian.PutUint64(b[8*i:], k)
		}
		return b
	}
	seq := func(n int, norm func(i int) uint64) []byte {
		norms := make([]uint64, n)
		for i := range norms {
			norms[i] = norm(i)
		}
		return pack(norms...)
	}
	const n = 2*insertionCutoff + 8
	f.Add(pack(), uint8(64), uint8(n))
	f.Add(seq(n, func(int) uint64 { return 42 }), uint8(64), uint8(n))                            // all equal
	f.Add(seq(n, func(i int) uint64 { return 9<<32 | uint64(i*37%256)<<8 }), uint8(64), uint8(n)) // one varying column
	f.Add(seq(n, func(i int) uint64 { return uint64(255-i)<<56 | 5 }), uint8(64), uint8(n))       // top byte only
	f.Add(seq(n, func(i int) uint64 { return uint64(i) << 20 }), uint8(62), uint8(n))             // already sorted
	f.Add(seq(n, func(i int) uint64 { return uint64(n-i) << 20 }), uint8(32), uint8(n-1))         // reversed
	f.Add(seq(n, func(i int) uint64 { return uint64(i * 7919) }), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, bits, length uint8) {
		norms := bytesToKeys(data)
		// Cycle the fuzzer's norms up to a length on either side of the
		// thresholds, so short inputs still reach the radix passes.
		// length >= 128 instead cuts long inputs down to it.
		want, have := int(length)%(4*insertionCutoff), len(norms)
		for i := have; have > 0 && i < want; i++ {
			norms = append(norms, norms[i%have])
		}
		if length >= 128 && want < have {
			norms = norms[:want]
		}
		keyBits := [...]int{8, 32, 62, 64}[bits%4]
		if keyBits < 64 {
			for i := range norms {
				norms[i] &= 1<<keyBits - 1
			}
		}
		checkSortNormRefs(t, norms, 1, 2, 3, 4)
	})
}
