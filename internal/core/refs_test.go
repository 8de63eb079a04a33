package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/lsort"
	"pgxsort/internal/transport"
)

// entryPathCodec is a codec with an exact Norm and no Denorm: an engine
// under it sorts bare keys by entry, the same keys in the same order as
// the codec it wraps sorts them by ref.
type entryPathCodec[K any] struct{ comm.Codec[K] }

func (c entryPathCodec[K]) Norm(k K) uint64 { return c.Codec.(comm.KeyNormalizer[K]).Norm(k) }

// refsCase sorts parts on two engines built alike but for the codec —
// one under codec, which frames refs, one under the entry path's — and
// requires the sort by ref to have gone by ref (step 1 resident at 16
// bytes a key) and to equal the sort by entry entry for entry (key bits,
// Proc, Index) and in every traffic count.
func refsCase[K cmp.Ordered](t *testing.T, label string, opts Options, byRef, byEntry comm.Codec[K], parts [][]K) {
	t.Helper()
	sort := func(codec comm.Codec[K]) *Result[K] {
		t.Helper()
		e, err := NewEngine[K](opts, codec)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Sort(parts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}
	got, want := sort(byRef), sort(byEntry)
	n := int64(got.Len())
	eb := int64(entryBytes[K]())
	if step1 := got.Report.ResidentBytes - n*eb; step1 != n*refBytes {
		t.Fatalf("%s: step 1 held %d bytes for %d keys; the sort did not go by ref", label, step1, n)
	}
	if step1 := want.Report.ResidentBytes - n*eb; step1 != n*eb {
		t.Fatalf("%s: step 1 held %d bytes for %d keys; the sort did not go by entry", label, step1, n)
	}
	for i := range want.Parts {
		g, w := got.Parts[i], want.Parts[i]
		if len(g) != len(w) {
			t.Fatalf("%s: part %d has %d entries by ref, %d by entry", label, i, len(g), len(w))
		}
		for j := range w {
			if g[j].Proc != w[j].Proc || g[j].Index != w[j].Index || g[j].Payload != nil ||
				!bytes.Equal(keyBytes(byRef, g[j].Key), keyBytes(byRef, w[j].Key)) {
				t.Fatalf("%s: part %d entry %d is %+v by ref, %+v by entry", label, i, j, g[j], w[j])
			}
		}
	}
	gr, wr := got.Report, want.Report
	if gr.BytesSent != wr.BytesSent || gr.MsgsSent != wr.MsgsSent || gr.DataBytes != wr.DataBytes ||
		gr.SampleBytes != wr.SampleBytes || gr.MetaBytes != wr.MetaBytes || gr.SpillBytes != wr.SpillBytes {
		t.Fatalf("%s: traffic by ref %d B / %d msgs (data %d, samples %d, meta %d, spill %d), by entry %d B / %d msgs (data %d, samples %d, meta %d, spill %d)",
			label, gr.BytesSent, gr.MsgsSent, gr.DataBytes, gr.SampleBytes, gr.MetaBytes, gr.SpillBytes,
			wr.BytesSent, wr.MsgsSent, wr.DataBytes, wr.SampleBytes, wr.MetaBytes, wr.SpillBytes)
	}
}

// refsKeys maps one dist draw onto a key type, floats with their
// specials (NaNs of both signs, both zeros, both infinities) mixed in.
func refsKeys[K any](parts [][]uint64, key func(i int, k uint64) K) [][]K {
	out := make([][]K, len(parts))
	for p, keys := range parts {
		out[p] = make([]K, len(keys))
		for i, k := range keys {
			out[p][i] = key(i, k)
		}
	}
	return out
}

func refsFloat(i int, k uint64) float64 {
	specials := []float64{math.NaN(), math.Float64frombits(0xfff8000000000001), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	if i%40 < len(specials) {
		return specials[i%40]
	}
	return float64(int64(k)-1<<40) / 3
}

// TestRefsPathMatchesEntryPath: a sort of bare keys by ref gives what the
// same sort by entry gives, entry for entry and byte for byte of traffic —
// for every built-in codec with a Denorm, over both transports, at every
// processor count from 1 to 7, on every distribution (few-distinct and
// constant included), in chunks small enough that every range crosses
// several messages. A key-only sort on a record codec goes by ref too,
// its frames carrying the zero payload length; and under a budget the
// exchange exceeds while no share does, the refs turn back into entries
// on their way into the spilled sink.
func TestRefsPathMatchesEntryPath(t *testing.T) {
	for _, tr := range []string{transport.KindChan, transport.KindTCP} {
		for _, p := range []int{1, 2, 3, 4, 7} {
			opts := Options{Procs: p, WorkersPerProc: 2, Transport: tr, MemoryBudget: -1, BufferBytes: 2048}
			for _, kind := range dist.AllKinds {
				label := fmt.Sprintf("%s/p=%d/%v", tr, p, kind)
				parts := make([][]uint64, p)
				for i := range parts {
					parts[i] = dist.Gen{Kind: kind, Seed: 61 + uint64(i)*7919, Domain: 1 << 62}.Keys(700 + 53*i)
				}
				u64 := comm.Codec[uint64](comm.U64Codec{})
				refsCase(t, label+"/uint64", opts, u64, entryPathCodec[uint64]{u64}, parts)
				i64 := comm.Codec[int64](comm.I64Codec{})
				refsCase(t, label+"/int64", opts, i64, entryPathCodec[int64]{i64},
					refsKeys(parts, func(_ int, k uint64) int64 { return int64(k) - 1<<61 }))
				f64 := comm.Codec[float64](comm.F64Codec{})
				refsCase(t, label+"/float64", opts, f64, entryPathCodec[float64]{f64}, refsKeys(parts, refsFloat))
				u32 := comm.Codec[uint32](comm.U32Codec{})
				refsCase(t, label+"/uint32", opts, u32, entryPathCodec[uint32]{u32},
					refsKeys(parts, func(_ int, k uint64) uint32 { return uint32(k >> 30) }))
			}
			rec := comm.Codec[uint64](comm.NewRecordCodec[uint64](comm.U64Codec{}))
			recEntry := comm.Codec[uint64](comm.NewRecordCodec[uint64](entryPathCodec[uint64]{comm.U64Codec{}}))
			refsCase(t, fmt.Sprintf("%s/p=%d/record-codec", tr, p), opts, rec, recEntry, mkParts(dist.RightSkewed, p, 900, 67))
		}

		// Without the investigator every copy of a constant key goes to one
		// node: it receives p shares while each share fits the budget.
		const p, per = 3, 1500
		budget := int64(per) * int64(entryBytes[uint64]())
		opts := Options{Procs: p, WorkersPerProc: 2, Transport: tr, MemoryBudget: budget, SpillDir: t.TempDir(),
			DisableInvestigator: true, BufferBytes: 2048}
		for _, kind := range []dist.Kind{dist.Constant, dist.FewDistinct} {
			parts := mkParts(kind, p, per, 71)
			label := fmt.Sprintf("%s/exchange-spills/%v", tr, kind)
			refsCase(t, label, opts, comm.U64Codec{}, entryPathCodec[uint64]{comm.U64Codec{}}, parts)
			e := newTestEngine(t, opts)
			res, err := e.Sort(parts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.SpillBytes == 0 {
				t.Fatalf("%s: the exchange did not spill", label)
			}
			requireMatchesReference(t, comm.U64Codec{}, res, parts, true, label)
			checkNoLeak(t, e)
		}
	}
}

// TestRefsPathPanicGivesEverythingBack: a panic in a sort by ref's step 1
// (the norm giving out while the refs are built) or step 6 (the inverse
// giving out while the result is written, alone and beside the helper
// goroutine) unwinds with every ref and provenance slab back in its pool
// and the tracker at zero.
func TestRefsPathPanicGivesEverythingBack(t *testing.T) {
	keys := dist.Gen{Kind: dist.Uniform, Seed: 59}.Keys(6000)
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s returned; it should have panicked", what)
			}
		}()
		f()
	}
	balanced := func(t *testing.T, n *node[uint64]) {
		t.Helper()
		if live := n.tracker.Live(); live != 0 {
			t.Errorf("tracker holds %d bytes after the panic", live)
		}
		if gets, _, puts := n.refPool.Stats(); gets != puts {
			t.Errorf("ref pool saw %d gets and %d puts", gets, puts)
		}
		if gets, _, puts := n.provPool.Stats(); gets != puts {
			t.Errorf("provenance pool saw %d gets and %d puts", gets, puts)
		}
	}
	for _, workers := range []int{1, 2} {
		e := newTestEngine(t, Options{Procs: 3, WorkersPerProc: workers, MemoryBudget: -1})
		s := testSortRun(e)
		s.byRef = true
		s.src = &keySource[uint64]{keys: keys}
		s.runs.cmps.norm = func(k uint64) uint64 {
			if k == keys[4000] {
				panic("norm gave out")
			}
			return k
		}
		mustPanic(t, "step 1", func() { s.localSort() })
		balanced(t, s.node)

		s = testSortRun(e)
		s.byRef = true
		sink, err := s.newExchangeSink([]int{2000, 2000, 2000})
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < 3; src++ {
			refs := make([]lsort.NormRef, 2000)
			for i := range refs {
				refs[i] = lsort.NormRef{Norm: uint64(3*i + src), Idx: uint32(i)}
			}
			if err := sink.Write(comm.Message[uint64]{Kind: comm.KData, Src: src, Refs: refs}); err != nil {
				t.Fatal(err)
			}
		}
		s.runs.cmps.denorm = func(n uint64) uint64 {
			if n == 3*100 {
				panic("denorm gave out")
			}
			return n
		}
		mustPanic(t, "step 6", func() { sink.merge() })
		balanced(t, s.node)
	}
}
