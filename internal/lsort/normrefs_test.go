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

// wideDomain spreads a dist kind over 62 bits, as the repository
// benchmark's uint64 workloads do; dist.DefaultDomain is 20 bits, which
// two digits cover whole.
const wideDomain = 1 << 62

// seqNorms is n norms, the i-th drawn by norm from one seeded generator.
func seqNorms(n int, norm func(rng *dist.RNG, i int) uint64) []uint64 {
	rng, norms := dist.NewRNG(29), make([]uint64, n)
	for i := range norms {
		norms[i] = norm(rng, i)
	}
	return norms
}

// normShapes are the inputs the step-1 kernel must neither get wrong nor
// pay for: what the top digits tell apart at once (uniform, sorted),
// what they can never tell apart (few distinct values, all equal), and
// what they tell apart only partly, so that groups sharing a prefix are
// left to finish — two far clusters, clusters inside clusters at every
// level of the recursion, groups just past the insertion cutoff, one
// narrow domain under a long shared prefix.
// BenchmarkSortNormRefs times them and FuzzSortNormRefs is seeded from
// them.
var normShapes = []struct {
	name  string
	bench bool // a row of BenchmarkSortNormRefs
	norms func(n int) []uint64
}{
	{"uniform62", true, func(n int) []uint64 { return dist.Gen{Kind: dist.Uniform, Seed: 29, Domain: wideDomain}.Keys(n) }},
	{"skewed20", true, func(n int) []uint64 { return dist.Gen{Kind: dist.RightSkewed, Seed: 29}.Keys(n) }},
	{"sorted62", true, func(n int) []uint64 { return dist.Gen{Kind: dist.Sorted, Seed: 29, Domain: wideDomain}.Keys(n) }},
	{"distinct16", true, func(n int) []uint64 { return dist.Gen{Kind: dist.FewDistinct, Seed: 29, Domain: wideDomain}.Keys(n) }},
	{"two-clusters", true, func(n int) []uint64 {
		return seqNorms(n, func(rng *dist.RNG, _ int) uint64 { return rng.Uint64n(2)<<61 | rng.Uint64n(1<<30) })
	}},
	{"nested-clusters", false, func(n int) []uint64 {
		// Six 10-bit fields, each one of four values except in one ref
		// in 64, where it is any: every bit varies, so no digit can be
		// skipped, yet whatever digits a level takes leave a few heavy
		// groups that are clusters again — the recursion's depth.
		return seqNorms(n, func(rng *dist.RNG, _ int) (k uint64) {
			for field := 0; field < 6; field++ {
				v := rng.Uint64n(4) * 341
				if rng.Uint64n(64) == 0 {
					v = rng.Uint64n(1 << 10)
				}
				k = k<<10 | v
			}
			return k
		})
	}},
	{"sparse-bits", false, func(n int) []uint64 {
		// One varying bit in seven: a digit anchored at each tells little
		// apart, so a level takes as many digits as it ever will.
		return seqNorms(n, func(rng *dist.RNG, _ int) (k uint64) {
			for bit := 61; bit > 0; bit -= 7 {
				k |= rng.Uint64n(2) << bit
			}
			return k
		})
	}},
	{"prefix44", false, func(n int) []uint64 {
		return seqNorms(n, func(rng *dist.RNG, _ int) uint64 { return 0xABCDE12345F<<18 | rng.Uint64n(1<<18) })
	}},
	{"all-equal", false, func(n int) []uint64 { return dist.Gen{Kind: dist.Constant, Domain: wideDomain}.Keys(n) }},
	{"groups-of-40", true, func(n int) []uint64 {
		// One wide ref makes every bit vary, so the first level cannot
		// skip to the bits that matter: it leaves n/40 groups just past
		// the insertion cutoff, each a narrow-domain sort of its own.
		return seqNorms(n, func(rng *dist.RNG, i int) uint64 {
			if i == n/2 {
				return 1<<62 - 1
			}
			return rng.Uint64n(uint64(n/40+1))<<40 | rng.Uint64n(1<<20)
		})
	}},
	{"one-far", false, func(n int) []uint64 {
		// One ref far from all the others, which are distinct in their
		// low 37 bits only: a kernel that took its digits from the top of
		// the diff come what may, and finished whatever shared them by
		// insertion, would be quadratic here.
		return seqNorms(n, func(_ *dist.RNG, i int) uint64 {
			if i == n/2 {
				return 0
			}
			return 1<<61 | uint64(i)*0x9E3779B97F4A7C15&(1<<37-1)
		})
	}},
}

// TestSortNormRefsShapes holds both kernels to the stable reference on
// every shape, at a length that is one group finished by insertion, a
// budgeted chunk's, one on each side of the parallel cutoff and the
// cutoff itself (2^15, a resident share's), and one past a share's.
func TestSortNormRefsShapes(t *testing.T) {
	for _, shape := range normShapes {
		for _, n := range []int{2*insertionCutoff + 1, 4097, parallelRadixCutoff - 1, parallelRadixCutoff, parallelRadixCutoff + 1, 1<<16 + 1} {
			t.Run(fmt.Sprintf("%s/%d", shape.name, n), func(t *testing.T) {
				checkSortNormRefs(t, shape.norms(n), 1, 2, 3, 4, 8)
			})
		}
	}
}

// TestSortNormRefsAllocs pins what a ref sort allocates: nothing on one
// worker, and past the parallel cutoff only the goroutines it starts —
// its histograms are recycled.
func TestSortNormRefsAllocs(t *testing.T) {
	for _, n := range []int{1 << 13, 1 << 16} {
		norms := normShapes[0].norms(n)
		refs, scratch := make([]NormRef, n), make([]NormRef, n)
		for _, tc := range []struct {
			workers int
			most    float64
		}{{1, 0}, {2, 4}, {4, 4}} {
			got := testing.AllocsPerRun(20, func() {
				for i, k := range norms {
					refs[i] = NormRef{Norm: k, Idx: uint32(i)}
				}
				SortNormRefs(refs, scratch, tc.workers)
			})
			if got > tc.most {
				t.Errorf("n=%d workers=%d: %v allocations a sort, want at most %v", n, tc.workers, got, tc.most)
			}
		}
	}
}

// TestSortNormRefsColumnSkip pins what callers rely on whichever buffer
// the passes happen to end in: the result is the whole of refs or of
// scratch, it is the stable order, and an input with nothing to sort —
// every column constant — is returned by the kernel where it lies, without
// a write to scratch.
func TestSortNormRefsColumnSkip(t *testing.T) {
	const n = 1000
	cases := []struct {
		name string
		norm func(i int) uint64
	}{
		{"constant", func(int) uint64 { return 0xABCDEF }},
		{"one-low-column", func(i int) uint64 { return 7<<56 | uint64(i%251) }},
		{"top-byte-only", func(i int) uint64 { return uint64(i%256)<<56 | 0x1234 }},
		{"two-columns", func(i int) uint64 { return uint64(i%256)<<56 | uint64(i%97) }},
		{"all-eight", func(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }},
	}
	for _, tc := range cases {
		norms := make([]uint64, n)
		for i := range norms {
			norms[i] = tc.norm(n - i)
		}
		for _, workers := range []int{1, 2} {
			refs, scratch := refsOf(norms), make([]NormRef, n)
			got := SortNormRefs(refs, scratch, workers)
			if len(got) != n || (&got[0] != &refs[0] && &got[0] != &scratch[0]) {
				t.Errorf("%s workers=%d: result is neither refs nor scratch", tc.name, workers)
			}
			if tc.name == "constant" && workers == 1 && (&got[0] != &refs[0] || slices.ContainsFunc(scratch, func(r NormRef) bool { return r != NormRef{} })) {
				t.Errorf("%s workers=%d: a constant input was moved", tc.name, workers)
			}
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
// constant upper columns to skip), worker counts 1 to 4 and 8, and
// lengths around the insertion-sort threshold. A second arm lays the same
// norms out as the kernel's hard cases are laid out: bits>>2 clusters (none:
// the arm is off) under `shared` common top bits, each ref keeping
// `vary` of its own low bits — so the fuzzer reaches the equal-prefix
// walk, groups on both sides of the insertion cutoff and recursion below
// the first level, at lengths up to 8*255. vary's top bit (it keeps six
// low bits only) moves either arm's length to within 128 of the parallel
// cutoff, so both kernels run on every shape the fuzzer finds.
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
	f.Add(pack(), uint8(64), uint8(n), uint8(0), uint8(0))
	f.Add(seq(n, func(int) uint64 { return 42 }), uint8(64), uint8(n), uint8(0), uint8(0))                            // all equal
	f.Add(seq(n, func(i int) uint64 { return 9<<32 | uint64(i*37%256)<<8 }), uint8(64), uint8(n), uint8(0), uint8(0)) // one varying column
	f.Add(seq(n, func(i int) uint64 { return uint64(255-i)<<56 | 5 }), uint8(64), uint8(n), uint8(0), uint8(0))       // top byte only
	f.Add(seq(n, func(i int) uint64 { return uint64(i) << 20 }), uint8(62), uint8(n), uint8(0), uint8(0))             // already sorted
	f.Add(seq(n, func(i int) uint64 { return uint64(n-i) << 20 }), uint8(32), uint8(n-1), uint8(0), uint8(0))         // reversed
	f.Add(seq(n, func(i int) uint64 { return uint64(i * 7919) }), uint8(8), uint8(2), uint8(0), uint8(0))
	for _, shape := range normShapes {
		f.Add(pack(shape.norms(600)...), uint8(3), uint8(0), uint8(0), uint8(0))
	}
	wide := dist.Gen{Kind: dist.Uniform, Seed: 29, Domain: wideDomain}.Keys(256)
	f.Add(pack(wide...), uint8(3|2<<2), uint8(255), uint8(2), uint8(30))      // two far clusters
	f.Add(pack(wide...), uint8(3|40<<2), uint8(255), uint8(0), uint8(12))     // many groups past the insertion cutoff
	f.Add(pack(wide...), uint8(3|7<<2), uint8(200), uint8(44), uint8(3))      // heavy groups, a few values each
	f.Add(pack(wide...), uint8(3|1<<2), uint8(255), uint8(20), uint8(44))     // every ref shares a prefix, all distinct below
	f.Add(pack(wide...), uint8(3), uint8(128), uint8(0), uint8(128))          // the parallel cutoff, uniform
	f.Add(pack(wide...), uint8(3|40<<2), uint8(127), uint8(0), uint8(128|12)) // just below it, groups past the insertion cutoff
	f.Add(pack(wide...), uint8(3|2<<2), uint8(255), uint8(2), uint8(128|30))  // past it, two far clusters
	f.Fuzz(func(t *testing.T, data []byte, bits, length, shared, vary uint8) {
		norms := bytesToKeys(data)
		// Cycle the fuzzer's norms up to a length on either side of the
		// thresholds, so short inputs still reach the radix passes.
		// length >= 128 instead cuts long inputs down to it.
		clusters := uint64(bits >> 2)
		want, have := int(length)%(4*insertionCutoff), len(norms)
		if clusters > 0 {
			want = 8 * int(length)
		}
		for i := have; have > 0 && i < want; i++ {
			norms = append(norms, norms[i%have])
		}
		if vary >= 128 {
			want = parallelRadixCutoff - 128 + int(length)
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
		if clusters > 0 {
			// Top `shared` bits common, the cluster's id spread over the
			// bits below them, the ref's own low `vary` bits last — its
			// own: a cycled norm differs from the one it repeats.
			top := 64 - int(shared)%64
			low := min(int(vary)%64, top)
			for i, k := range norms {
				k += uint64(i / have)
				id := (k>>32%clusters + 1) * 0x9E3779B97F4A7C15 >> (64 - top) >> low << low
				norms[i] = ^uint64(0)<<top | id | k&(1<<low-1)
			}
		}
		checkSortNormRefs(t, norms, 1, 2, 3, 4, 8)
	})
}
