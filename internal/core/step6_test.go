package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/lsort"
	"pgxsort/internal/sample"
	"pgxsort/internal/spill"
)

// testSortRun is a sort run on node 0 of e outside any sort, for a test
// to hand a source or an exchange.
func testSortRun[K cmp.Ordered](e *Engine[K]) *sortRun[K] {
	cmps := e.comparators()
	n := e.nodes[0]
	return &sortRun[K]{node: n, opts: e.opts, codec: e.codec, ctx: context.Background(), cmps: cmps,
		runs: runFormer[K]{ctx: context.Background(), codec: e.codec, cmps: cmps, workers: e.opts.WorkersPerProc,
			pool: n.entryPool, refPool: &n.refPool, tracker: &n.tracker}}
}

// step6Sink is the sink of a sort run on node 0 of a fresh engine —
// resident, or spilled under a one-byte budget — by ref or not, for an
// exchange delivering bySrc's keys, and the runs that exchange lands in
// it: each source's keys sorted under the sort's own entry order, ties in
// index order. The caller may still adjust the run before landing the
// runs (step6Land).
func step6Sink[K cmp.Ordered](t *testing.T, codec comm.Codec[K], bySrc [][]K, payloads, byRef, spilled bool, workers int) (*sortRun[K], exchangeSink[K], [][]comm.Entry[K]) {
	t.Helper()
	p := len(bySrc)
	opts := Options{Procs: p, WorkersPerProc: workers, MemoryBudget: -1}
	if spilled {
		opts.MemoryBudget, opts.SpillDir = 1, t.TempDir()
	}
	e, err := NewEngine[K](opts, codec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s := testSortRun(e)
	s.byRef = byRef
	cmps := s.cmps

	perSrc := make([]int, p)
	runs := make([][]comm.Entry[K], p)
	for src, keys := range bySrc {
		perSrc[src] = len(keys)
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
		runs[src] = run
	}
	sink, err := s.newExchangeSink(perSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sink.(*spilledSink[K]); ok != (spilled && len(slices.Concat(bySrc...)) > 0) {
		t.Fatalf("%T for a spilled sink: %v", sink, spilled) // nothing to land spills nothing
	}
	return s, sink, runs
}

// step6Land writes each source's run into the sink as one KData message,
// as the exchange delivers it: entries, or on a sort by ref the refs
// (norm, origin node, origin index) standing for them.
func step6Land[K cmp.Ordered](t *testing.T, s *sortRun[K], sink exchangeSink[K], runs [][]comm.Entry[K]) {
	t.Helper()
	for src, run := range runs {
		m := comm.Message[K]{Kind: comm.KData, Src: src, Entries: run}
		if s.byRef {
			m.Entries, m.Refs = nil, make([]lsort.NormRef, len(run))
			for i, e := range run {
				m.Refs[i] = lsort.NormRef{Norm: s.cmps.norm(e.Key), Proc: e.Proc, Idx: e.Index}
			}
		}
		if err := sink.Write(m); err != nil {
			t.Fatal(err)
		}
	}
}

// step6Case lands bySrc's runs in a step6Sink, merges it and holds the
// result to the stable entry merge (lsort.MergeAdjacentRuns under the
// sort's key order) of the very same runs: Key, Payload, Proc and Index of
// every entry. A codec with an inverse norm is merged by ref too, when
// there are no payloads for the refs to lose. Bare keys are merged into a
// key column as well (a key-column job's part), the way a sort of them
// goes — by ref under an inverse norm, else by entry — and held to the
// same merge's keys. Every arm runs through the resident sink and, on one
// worker (the spilled merge runs on one whatever the workers), through
// the spilled sink too. Afterwards the node's tracker is at zero and
// every slab is back in its pool.
func step6Case[K cmp.Ordered](t *testing.T, label string, codec comm.Codec[K], bySrc [][]K, payloads bool, workers int) {
	t.Helper()
	arms := []bool{false}
	_, denorm := comm.RefDenorm(codec)
	if denorm && !payloads {
		arms = append(arms, true)
	}
	sinks := []bool{false}
	if workers == 1 {
		sinks = append(sinks, true)
	}
	for _, byRef := range arms {
		for _, keys := range []bool{false, true} {
			if keys && (payloads || byRef != denorm) {
				continue
			}
			for _, spilled := range sinks {
				step6Arm(t, fmt.Sprintf("%s/byRef=%v/keys=%v/spilled=%v", label, byRef, keys, spilled), codec, bySrc, payloads, byRef, keys, spilled, workers)
			}
		}
	}
}

// step6Arm is one arm of step6Case: one sink, by ref or not, into entries
// or a key column.
func step6Arm[K cmp.Ordered](t *testing.T, label string, codec comm.Codec[K], bySrc [][]K, payloads, byRef, keys, spilled bool, workers int) {
	t.Helper()
	s, sink, runs := step6Sink(t, codec, bySrc, payloads, byRef, spilled, workers)
	s.keys = keys
	n, cmps := s.node, s.cmps
	assembled, bounds := []comm.Entry[K]{}, []int{0}
	for _, run := range runs {
		assembled = append(assembled, run...)
		bounds = append(bounds, len(assembled))
	}
	entryLess := func(a, b comm.Entry[K]) bool { return cmps.keyLess(a.Key, b.Key) }
	want := lsort.MergeAdjacentRuns(assembled, make([]comm.Entry[K], len(assembled)), bounds, entryLess, true)

	step6Land(t, s, sink, runs)
	part, err := sink.merge()
	if err != nil {
		t.Fatal(err)
	}
	if part.len() != len(want) || len(want) > 0 && keys != (part.entries == nil) {
		t.Fatalf("%s: %d entries and %d keys out, want %d", label, len(part.entries), len(part.keys), len(want))
	}
	if c := cap(part.entries) + cap(part.keys); c != len(want) {
		t.Errorf("%s: part of %d has capacity %d, want its exact size", label, len(want), c)
	}
	for i, w := range want {
		if keys {
			if !bytes.Equal(keyBytes(codec, part.keys[i]), keyBytes(codec, w.Key)) {
				t.Fatalf("%s: key %d is %v, the entry merge gives %+v", label, i, part.keys[i], w)
			}
			continue
		}
		g := part.entries[i]
		if g.Proc != w.Proc || g.Index != w.Index || !bytes.Equal(g.Payload, w.Payload) ||
			!bytes.Equal(keyBytes(codec, g.Key), keyBytes(codec, w.Key)) {
			t.Fatalf("%s: entry %d is %+v, the entry merge gives %+v", label, i, g, w)
		}
	}
	if live := n.tracker.Live(); live != 0 {
		t.Errorf("%s: tracker holds %d bytes after the merge", label, live)
	}
	checkSlabsBack(t, label, n, len(want) > 0, byRef, spilled)
	n.eng.Close() // the matrix builds hundreds: none outlives its case
}

// checkSlabsBack holds node n's pools to one step-6 sink's slabs, every
// one of them back. A resident sink takes the ref slab and the merge's
// spare, and beside them one entry slab unless it is by ref — no entry
// slab taken when nothing landed. A spilled sink by ref takes ref slabs
// only, its runs' decoded blocks among them; by entry it decodes its runs
// into entry slabs.
func checkSlabsBack[K cmp.Ordered](t *testing.T, label string, n *node[K], landed, byRef, spilled bool) {
	t.Helper()
	refGets, _, refPuts := n.refPool.Stats()
	if refGets != refPuts {
		t.Errorf("%s: ref pool saw %d gets and %d puts", label, refGets, refPuts)
	}
	if spilled {
		gets, _, puts := n.entryPool.Stats()
		if gets != puts || landed && byRef && (gets != 0 || refGets == 0) || landed && !byRef && gets == 0 {
			t.Errorf("%s: spilled merge by ref %v took %d entry slabs (%d back) and %d ref slabs", label, byRef, gets, puts, refGets)
		}
		return
	}
	var entries int64
	if landed && !byRef {
		entries = 1
	}
	if gets, _, puts := n.entryPool.Stats(); gets != entries || puts != entries {
		t.Errorf("%s: entry pool saw %d gets and %d puts, want %d and %d", label, gets, puts, entries, entries)
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

// TestStep6RefsPanicGivesEverythingBack: user code runs in step 6 at two
// places, and a panic in either gives every slab back and leaves the
// tracker at zero. The norm, in Write, writing each landed entry's ref:
// the exchange's cleanup discards the sink the panic left behind. The
// inverse norm, in a sort by ref's result build, on the caller's half
// alone and beside the helper goroutine building the other: the merge
// unwinds through its defers before the panic reaches the caller (in a
// sort, the recovery in run).
func TestStep6RefsPanicGivesEverythingBack(t *testing.T) {
	bySrc := make([][]uint64, 3)
	for src := range bySrc {
		bySrc[src] = dist.Gen{Kind: dist.Uniform, Seed: 53 + uint64(src)}.Keys(2000)
	}
	codec := comm.Codec[uint64](comm.U64Codec{})
	mustPanic := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: returned; user code should have panicked", label)
			}
		}()
		fn()
	}

	t.Run("write-norm", func(t *testing.T) {
		s, sink, runs := step6Sink(t, codec, bySrc, false, false, false, 2)
		norm, bad := s.runs.cmps.norm, runs[1][700].Key
		s.runs.cmps.norm = func(k uint64) uint64 {
			if k == bad {
				panic("norm gave out")
			}
			return norm(k)
		}
		mustPanic("write", func() { step6Land(t, s, sink, runs) })
		sink.discard() // as partitionExchange's cleanup does
		if live := s.node.tracker.Live(); live != 0 {
			t.Errorf("tracker holds %d bytes after the panic", live)
		}
		checkSlabsBack(t, "write", s.node, true, false, false)
	})

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("result-denorm/workers=%d", workers), func(t *testing.T) {
			s, sink, runs := step6Sink(t, codec, bySrc, false, true, false, workers)
			step6Land(t, s, sink, runs)
			// A norm of the caller's half of the result, so the panic is the
			// caller's while a second worker's helper is still building its half.
			all := slices.Concat(bySrc...)
			slices.Sort(all)
			denorm, bad := s.runs.cmps.denorm, s.cmps.norm(all[len(all)/4])
			s.runs.cmps.denorm = func(norm uint64) uint64 {
				if norm == bad {
					panic("denorm gave out")
				}
				return denorm(norm)
			}
			mustPanic("merge", func() { sink.merge() })
			if live := s.node.tracker.Live(); live != 0 {
				t.Errorf("tracker holds %d bytes after the panic", live)
			}
			if gets, _, _ := s.node.refPool.Stats(); gets != 2 {
				t.Errorf("ref pool saw %d gets, want the ref slab and the merge's spare", gets)
			}
			checkSlabsBack(t, "merge", s.node, true, true, false)
		})
	}
}

// TestExchangeSinkRefusesOversizedShare: counts summing past the uint32
// positions a ref addresses are refused with ErrShareTooLarge before the
// resident sink takes a slab, and a negative count — range metadata is a
// peer's word — is an error before either sink takes a slab or a scratch
// file. By ref or not, nothing panics, nothing is taken and nothing is
// ever accounted.
func TestExchangeSinkRefusesOversizedShare(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	// Armed to do nothing, the create site counts the scratch files taken.
	failpoint.Set(spill.FpCreateScratch, failpoint.Schedule{Mode: failpoint.ModeDelay, Count: -1})
	e := newTestEngine(t, Options{Procs: 2, MemoryBudget: -1, SpillDir: t.TempDir()})
	s := testSortRun(e)
	n := s.node
	for _, c := range []struct {
		name    string
		budget  int64
		counts  []int
		tooMany bool
	}{
		{"oversized", -1, []int{1 << 31, 1 << 31}, true},
		{"negative/resident", -1, []int{5, -1}, false},
		{"negative/spilled", 1, []int{5, -1}, false},
	} {
		for _, byRef := range []bool{false, true} {
			label := fmt.Sprintf("%s/byRef=%v", c.name, byRef)
			s.byRef, s.opts.MemoryBudget = byRef, c.budget
			sink, err := func() (_ exchangeSink[uint64], err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panicked: %v", r)
					}
				}()
				return s.newExchangeSink(c.counts)
			}()
			if sink != nil || err == nil || errors.Is(err, ErrShareTooLarge) != c.tooMany || strings.Contains(err.Error(), "panicked") {
				t.Fatalf("%s: newExchangeSink returned %v, %v", label, sink, err)
			}
		}
	}
	if peak := n.tracker.Peak(); peak != 0 {
		t.Fatalf("tracker peaked at %d bytes", peak)
	}
	for name, pool := range map[string]interface{ Stats() (int64, int64, int64) }{
		"entry": n.entryPool, "ref": &n.refPool,
	} {
		if gets, _, _ := pool.Stats(); gets != 0 {
			t.Fatalf("%s pool saw %d gets", name, gets)
		}
	}
	if taken := failpoint.Fired(spill.FpCreateScratch); taken != 0 {
		t.Fatalf("%d scratch files taken", taken)
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
