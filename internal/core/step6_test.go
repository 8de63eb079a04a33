package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/lsort"
	"pgxsort/internal/sample"
)

// testSortRun is a sort run on node 0 of e outside any sort, for a test
// to hand a source or an exchange.
func testSortRun[K cmp.Ordered](e *Engine[K]) *sortRun[K] {
	cmps := e.comparators()
	n := e.nodes[0]
	return &sortRun[K]{node: n, opts: e.opts, codec: e.codec, ctx: context.Background(), cmps: cmps,
		runs: runFormer[K]{ctx: context.Background(), codec: e.codec, cmps: cmps, workers: e.opts.WorkersPerProc,
			pool: n.entryPool, refPool: &n.refPool, provPool: &n.provPool, tracker: &n.tracker}}
}

// step6Sink assembles the given per-source keys on node 0 of a fresh
// engine exactly as an exchange would: each source's run sorted under the
// sort's own entry order, ties in index order, written into the resident
// sink of a sort run the caller may still adjust. It also reports how many
// sources sent anything.
func step6Sink[K cmp.Ordered](t *testing.T, label string, codec comm.Codec[K], bySrc [][]K, payloads bool, workers int) (*Engine[K], *sortRun[K], *residentSink[K], int) {
	t.Helper()
	p := len(bySrc)
	e, err := NewEngine[K](Options{Procs: p, WorkersPerProc: workers, MemoryBudget: -1}, codec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s := testSortRun(e)
	cmps := s.cmps

	perSrc := make([]int, p)
	for src, keys := range bySrc {
		perSrc[src] = len(keys)
	}
	sink, err := s.newExchangeSink(perSrc)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for src, keys := range bySrc {
		run := make([]comm.Entry[K], len(keys))
		for i, k := range keys {
			run[i] = comm.Entry[K]{Key: k, Proc: uint32(src), Index: uint32(i)}
			if payloads {
				run[i].Payload = []byte(fmt.Sprintf("%d/%d", src, i))
			}
		}
		slices.SortStableFunc(run, func(a, b comm.Entry[K]) int {
			switch {
			case cmps.keyLess(a.Key, b.Key):
				return -1
			case cmps.keyLess(b.Key, a.Key):
				return 1
			}
			return 0
		})
		if len(run) > 0 {
			nonEmpty++
		}
		if err := sink.Write(comm.Message[K]{Kind: comm.KData, Src: src, Entries: run}); err != nil {
			t.Fatal(err)
		}
	}
	return e, s, sink.(*residentSink[K]), nonEmpty
}

// step6Case merges a step6Sink and holds the result to the stable entry
// merge (lsort.MergeAdjacentRuns under the sort's key order) of the very
// same assembly: Key, Payload, Proc and Index of every entry. Afterwards the
// node's tracker is at zero and every ref slab is back in its pool.
func step6Case[K cmp.Ordered](t *testing.T, label string, codec comm.Codec[K], bySrc [][]K, payloads bool, workers int) {
	t.Helper()
	e, s, sink, nonEmpty := step6Sink(t, label, codec, bySrc, payloads, workers)
	defer e.Close()
	n, cmps := s.node, s.cmps
	asm := sink.asm
	assembled := slices.Clone(asm.Entries())
	entryLess := func(a, b comm.Entry[K]) bool { return cmps.keyLess(a.Key, b.Key) }
	want := lsort.MergeAdjacentRuns(assembled, make([]comm.Entry[K], len(assembled)), asm.Bounds(), entryLess, true)

	got, err := sink.merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries out, want %d", label, len(got), len(want))
	}
	if nonEmpty > 1 && cap(got) != len(got) {
		t.Errorf("%s: result of %d entries has capacity %d, want its exact size", label, len(got), cap(got))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Proc != w.Proc || g.Index != w.Index || !bytes.Equal(g.Payload, w.Payload) ||
			!bytes.Equal(keyBytes(codec, g.Key), keyBytes(codec, w.Key)) {
			t.Fatalf("%s: entry %d is %+v, the entry merge gives %+v", label, i, g, w)
		}
	}
	if live := n.tracker.Live(); live != 0 {
		t.Errorf("%s: tracker holds %d bytes after the merge", label, live)
	}
	if gets, _, puts := n.refPool.Stats(); gets != puts {
		t.Errorf("%s: ref pool saw %d gets and %d puts", label, gets, puts)
	}
	// The assembly buffer went back unless it is the result itself.
	wantPuts := int64(1)
	if nonEmpty == 1 {
		wantPuts = 0
	}
	if gets, _, puts := n.entryPool.Stats(); len(assembled) > 0 && (gets != 1 || puts != wantPuts) {
		t.Errorf("%s: entry pool saw %d gets and %d puts, want 1 and %d", label, gets, puts, wantPuts)
	}
}

// TestStep6RefsMatchesEntryMerge: merging refs and gathering once gives,
// entry for entry, what merging the entries gives — for every key type
// with a norm (the float64 total order with its NaNs, zeros and
// infinities; strings behind the inexact prefix norm, few-distinct and
// sharing a prefix longer than the norm sees), for records, for every
// source count and worker count, with a source that sends nothing and
// with nothing sent at all.
func TestStep6RefsMatchesEntryMerge(t *testing.T) {
	const per = 3000 // two sources' worth passes the helper-goroutine and split cutoffs
	floatOf := func(i int, k uint64) float64 {
		specials := []float64{math.NaN(), -math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
		switch {
		case i%50 < len(specials):
			return specials[i%50]
		case i%2 == 0:
			return math.Float64frombits(k * 0x9e3779b97f4a7c15)
		}
		return float64(k%200) - 100
	}
	for _, p := range []int{1, 2, 3, 4, 7} {
		for _, workers := range []int{1, 2, 3} {
			// Source sizes: all full, one silent source, all silent.
			for _, shape := range []string{"full", "one-silent", "all-silent"} {
				sizes := make([]int, p)
				for src := range sizes {
					if shape == "full" || shape == "one-silent" && src != p/2 {
						sizes[src] = per + 37*src
					}
				}
				label := func(kt string) string { return fmt.Sprintf("%s/p=%d/workers=%d/%s", kt, p, workers, shape) }
				base := make([][]uint64, p)
				for src, n := range sizes {
					base[src] = dist.Gen{Kind: dist.RightSkewed, Seed: 41 + uint64(src), Domain: 64}.Keys(n)
				}
				step6Case(t, label("uint64"), comm.Codec[uint64](comm.U64Codec{}), base, false, workers)
				step6Case(t, label("records"), comm.Codec[uint64](comm.NewRecordCodec[uint64](comm.U64Codec{})), base, true, workers)

				ints, floats := make([][]int64, p), make([][]float64, p)
				fewStr, prefStr := make([][]string, p), make([][]string, p)
				for src, keys := range base {
					ints[src], floats[src] = make([]int64, len(keys)), make([]float64, len(keys))
					for i, k := range keys {
						ints[src][i] = int64(k) - 20
						floats[src][i] = floatOf(i, k)
					}
					fewStr[src] = dist.Gen{Kind: dist.FewDistinct, Seed: 43 + uint64(src)}.Strings(len(keys), "")
					prefStr[src] = dist.Gen{Kind: dist.RightSkewed, Seed: 47 + uint64(src)}.Strings(len(keys), "shared-prefix-")
				}
				step6Case(t, label("int64"), comm.Codec[int64](comm.I64Codec{}), ints, false, workers)
				step6Case(t, label("float64"), comm.Codec[float64](comm.F64Codec{}), floats, false, workers)
				step6Case(t, label("string-few-distinct"), comm.Codec[string](comm.StringCodec{}), fewStr, false, workers)
				step6Case(t, label("string-common-prefix"), comm.Codec[string](comm.StringCodec{}), prefStr, false, workers)
			}
		}
	}
}

// TestStep6RefsPanicGivesEverythingBack: a panic inside mergeRefs — here
// the norm giving out partway through the ref build, with both ref slabs
// and the assembly buffer held, alone and beside a helper goroutine —
// unwinds through its defers: every slab is back in its pool and the
// tracker at zero when the panic reaches the caller (in a sort, the
// recovery in run).
func TestStep6RefsPanicGivesEverythingBack(t *testing.T) {
	bySrc := make([][]uint64, 3)
	for src := range bySrc {
		bySrc[src] = dist.Gen{Kind: dist.Uniform, Seed: 53 + uint64(src)}.Keys(2000)
	}
	for _, workers := range []int{1, 2} {
		_, s, sink, _ := step6Sink(t, "panic", comm.Codec[uint64](comm.U64Codec{}), bySrc, false, workers)
		// A key of the caller's half of the ref build, so the panic is the
		// caller's while a second worker's helper is still building its half.
		norm, bad := s.runs.cmps.norm, sink.asm.Entries()[1500].Key
		s.runs.cmps.norm = func(k uint64) uint64 {
			if k == bad {
				panic("norm gave out")
			}
			return norm(k)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: merge returned; the norm should have panicked", workers)
				}
			}()
			sink.merge()
		}()
		n := s.node
		if live := n.tracker.Live(); live != 0 {
			t.Errorf("workers=%d: tracker holds %d bytes after the panic", workers, live)
		}
		if gets, _, puts := n.refPool.Stats(); gets != 2 || puts != 2 {
			t.Errorf("workers=%d: ref pool saw %d gets and %d puts, want 2 and 2", workers, gets, puts)
		}
		if gets, _, puts := n.entryPool.Stats(); gets != 1 || puts != 1 {
			t.Errorf("workers=%d: entry pool saw %d gets and %d puts, want 1 and 1", workers, gets, puts)
		}
	}
}

// TestSampleKeysAreRegularSamples: the keys step 2 sends are the keys of
// sample.Regular's entries, for every count sample.Count can give — read
// through the source at the indices the share's refs hold, which here run
// backwards through it.
func TestSampleKeysAreRegularSamples(t *testing.T) {
	for _, n := range []int{0, 1, 2, 9, 1000} {
		keys := make([]uint64, n)
		entries := make([]comm.Entry[uint64], n)
		refs := make([]lsort.NormRef, n)
		for i := range entries {
			at := n - 1 - i
			keys[at] = uint64(7 * i)
			entries[i] = comm.Entry[uint64]{Key: uint64(7 * i), Index: uint32(at)}
			refs[i] = lsort.NormRef{Norm: uint64(7 * i), Idx: uint32(at)}
		}
		s := &sortRun[uint64]{src: &keySource[uint64]{keys: keys}}
		for _, buffer := range []int{1, 64, 1 << 10, 1 << 18} {
			count := sample.Count(buffer, 4, 8, 1, n)
			want := sample.Regular(entries, count)
			got := s.sampleKeys(refs, count)
			if len(got) != len(want) {
				t.Fatalf("n=%d s=%d: %d keys, Regular gives %d entries", n, count, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i].Key {
					t.Fatalf("n=%d s=%d: key %d is %d, Regular's entry has %d", n, count, i, got[i], want[i].Key)
				}
			}
		}
	}
}

// TestSampleKeysFromNormsMatchByIdx: under a norm with an inverse step 2
// turns the sorted refs' norms back into keys instead of reading the
// input by Idx. Both arms must give the same keys bit for bit, for every
// key type that sorts by ref — for floats that covers NaNs of either
// sign, ±0 and ±Inf.
func TestSampleKeysFromNormsMatchByIdx(t *testing.T) {
	const n = 5000
	u := dist.Gen{Kind: dist.Uniform, Seed: 61, Domain: 1 << 62}.Keys(n)
	i64 := make([]int64, n)
	f64 := make([]float64, n)
	for i, k := range u {
		i64[i] = int64(k) - 1<<61
		f64[i] = float64(i64[i]) / 3
	}
	copy(f64, []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000abc),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64,
	})
	checkSampleKeysFromNorms(t, comm.Codec[uint64](comm.U64Codec{}), u, func(k uint64) uint64 { return k })
	checkSampleKeysFromNorms(t, comm.Codec[int64](comm.I64Codec{}), i64, func(k int64) uint64 { return uint64(k) })
	checkSampleKeysFromNorms(t, comm.Codec[float64](comm.F64Codec{}), f64, math.Float64bits)
}

func checkSampleKeysFromNorms[K cmp.Ordered](t *testing.T, codec comm.Codec[K], keys []K, bits func(K) uint64) {
	t.Helper()
	denorm, ok := comm.RefDenorm(codec)
	if !ok {
		t.Fatalf("%T: no inverse norm", codec)
	}
	norm := codec.(comm.KeyNormalizer[K]).Norm
	refs := make([]lsort.NormRef, len(keys))
	for i, k := range keys {
		refs[i] = lsort.NormRef{Norm: norm(k), Idx: uint32(i)}
	}
	refs = lsort.SortNormRefs(refs, make([]lsort.NormRef, len(refs)), 2)
	byIdx := &sortRun[K]{src: &keySource[K]{keys: keys}}
	byNorm := &sortRun[K]{src: &keySource[K]{keys: keys}, cmps: sortCmps[K]{norm: norm, denorm: denorm}}
	for _, buffer := range []int{1, 64, 1 << 10, 1 << 18} {
		count := sample.Count(buffer, 4, 8, 1, len(refs))
		want, got := byIdx.sampleKeys(refs, count), byNorm.sampleKeys(refs, count)
		for i := range want {
			if bits(got[i]) != bits(want[i]) {
				t.Fatalf("%T s=%d: sample %d is %#x from the norm, %#x by Idx", codec, count, i, bits(got[i]), bits(want[i]))
			}
		}
	}
	// Every ref, not only the sampled ones: the NaNs and zeros sit at the
	// ends of the order, where few samples fall.
	all := byNorm.sampleKeys(refs, len(refs))
	for i, r := range refs {
		if bits(all[i]) != bits(keys[r.Idx]) {
			t.Fatalf("%T: ref %d turns back into %#x, the input has %#x", codec, i, bits(all[i]), bits(keys[r.Idx]))
		}
	}
}
