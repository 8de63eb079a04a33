package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
	"pgxsort/internal/transport"
)

// entryPathCodec is a codec with an exact Norm and no Denorm: an engine
// under it sorts bare keys by entry, the same keys in the same order as
// the codec it wraps sorts them by ref.
type entryPathCodec[K any] struct{ comm.Codec[K] }

func (c entryPathCodec[K]) Norm(k K) uint64 { return c.Codec.(comm.KeyNormalizer[K]).Norm(k) }

// refsCase sorts parts on two engines built alike but for the codec —
// one under codec, which frames refs, one under the entry path's — and
// requires the sort by ref to have gone by ref (what steps 1 to 5 held
// resident: the share's refs, 16 bytes a key, where the sort by entry
// also built the entries it sent) and to equal the sort by entry entry for
// entry (key bits, Proc, Index) and in its traffic (refsTraffic). It
// returns the sort by ref's report.
func refsCase[K cmp.Ordered](t *testing.T, label string, opts Options, byRef, byEntry comm.Codec[K], parts [][]K) Report {
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
	if sent := got.Report.ResidentBytes - n*eb; sent != n*refBytes {
		t.Fatalf("%s: steps 1-5 held %d bytes for %d keys; the sort did not go by ref", label, sent, n)
	}
	if sent := want.Report.ResidentBytes - n*eb; sent != n*(refBytes+eb) {
		t.Fatalf("%s: steps 1-5 held %d bytes for %d keys; the sort did not go by entry", label, sent, n)
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
	refsTraffic(t, label, int64(comm.EntriesWireBytes(make([]comm.Entry[K], 1), byRef)), got.Report, want.Report)
	return got.Report
}

// refsTraffic holds a sort by ref's traffic (gr) to the same sort's by
// entry (wr), whose key-only entry is ew bytes on the wire where a ref is
// 16 under every codec. Node for node the two send the same samples and
// metadata and as many refs as entries, and each spills what the other
// spills but for the exchange's runs, which both write or neither, a ref
// or an entry a key of the node's part: step 1 spills refs on both paths.
// When ew is 16 — a 64-bit key, bare — every count is equal, messages and
// the bytes written and read back included. Otherwise the data messages
// are chunked by their own size and may number otherwise.
func refsTraffic(t *testing.T, label string, ew int64, gr, wr Report) {
	t.Helper()
	if ew == 16 && (gr.BytesSent != wr.BytesSent || gr.MsgsSent != wr.MsgsSent || gr.SpillBytes != wr.SpillBytes) {
		t.Fatalf("%s: traffic by ref %d B / %d msgs (spill %d), by entry %d B / %d msgs (spill %d)",
			label, gr.BytesSent, gr.MsgsSent, gr.SpillBytes, wr.BytesSent, wr.MsgsSent, wr.SpillBytes)
	}
	for i, g := range gr.PerNode {
		w := wr.PerNode[i]
		exchange := (16 - ew) * int64(g.PartSize)
		if d := g.SpillBytes - w.SpillBytes; g.SampleBytes != w.SampleBytes || g.MetaBytes != w.MetaBytes ||
			g.DataBytes*ew != w.DataBytes*16 || d != 0 && d != exchange || g.SpillReads-w.SpillReads != d {
			t.Fatalf("%s: node %d traffic by ref: data %d, samples %d, meta %d, spill %d/%d; by entry of %d bytes: data %d, samples %d, meta %d, spill %d/%d",
				label, i, g.DataBytes, g.SampleBytes, g.MetaBytes, g.SpillBytes, g.SpillReads,
				ew, w.DataBytes, w.SampleBytes, w.MetaBytes, w.SpillBytes, w.SpillReads)
		}
	}
}

// refsCodecCases runs refsCase over the four codecs with a Denorm and a
// key-only sort on a record codec, all on keys drawn from parts.
func refsCodecCases(t *testing.T, label string, opts Options, parts [][]uint64) map[string]Report {
	t.Helper()
	u64 := comm.Codec[uint64](comm.U64Codec{})
	i64 := comm.Codec[int64](comm.I64Codec{})
	f64 := comm.Codec[float64](comm.F64Codec{})
	u32 := comm.Codec[uint32](comm.U32Codec{})
	rec := comm.Codec[uint64](comm.NewRecordCodec[uint64](comm.U64Codec{}))
	return map[string]Report{
		"uint64": refsCase(t, label+"/uint64", opts, u64, entryPathCodec[uint64]{u64}, parts),
		"int64": refsCase(t, label+"/int64", opts, i64, entryPathCodec[int64]{i64},
			refsKeys(parts, func(_ int, k uint64) int64 { return int64(k) - 1<<61 })),
		"float64": refsCase(t, label+"/float64", opts, f64, entryPathCodec[float64]{f64}, refsKeys(parts, refsFloat)),
		"uint32": refsCase(t, label+"/uint32", opts, u32, entryPathCodec[uint32]{u32},
			refsKeys(parts, func(_ int, k uint64) uint32 { return uint32(k >> 30) })),
		"record-codec": refsCase(t, label+"/record-codec", opts, rec,
			comm.NewRecordCodec[uint64](entryPathCodec[uint64]{comm.U64Codec{}}), parts),
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
// same sort by entry gives, entry for entry, and sends as many refs as the
// other sends entries (refsTraffic) — for every built-in codec with a
// Denorm, over both transports, at every processor count from 1 to 7, on
// every distribution (few-distinct and constant included), in chunks
// small enough that every range crosses several messages. A key-only sort
// on a record codec goes by ref too. Where a 64-bit key's entry is 16
// bytes, as a ref is, the traffic is equal byte for byte.
//
// Under a budget it still goes by ref. Step 1's chunk runs are refs,
// 16 bytes a key, on both paths, merged back as refs — in rounds up to 64
// runs a node, by the loser tree above — and the spilled exchange appends
// ref chunks to its runs, a ref a key where the entry path writes an
// entry; both spill the exchange on the same nodes. Each step-1 shape runs with
// the exchange resident and with it spilled, and an exchange spills
// behind a step 1 that does not. A share of more than 64 runs needs a
// node to receive less than 1/32 of it, so below 33 processors its
// resident-exchange case is step 1 alone (refsStep1Case).
func TestRefsPathMatchesEntryPath(t *testing.T) {
	for _, tr := range []string{transport.KindChan, transport.KindTCP} {
		for _, p := range []int{1, 2, 3, 4, 7} {
			opts := Options{Procs: p, WorkersPerProc: 2, Transport: tr, MemoryBudget: -1, BufferBytes: 2048}
			for _, kind := range dist.AllKinds {
				parts := make([][]uint64, p)
				for i := range parts {
					parts[i] = dist.Gen{Kind: kind, Seed: 61 + uint64(i)*7919, Domain: 1 << 62}.Keys(700 + 53*i)
				}
				refsCodecCases(t, fmt.Sprintf("%s/p=%d/%v", tr, p, kind), opts, parts)
			}
		}

		for _, c := range []struct {
			name   string
			shares []int
			budget int64 // entries
			spills bool  // whether the exchange spills
		}{
			// Node 0 forms 2 runs; every node receives about 860 keys,
			// which a resident merge by entry holds at 96 bytes a key.
			{"rounds/exchange-resident", []int{3000, 150, 150, 150}, 2300, false},
			{"rounds/exchange-spills", []int{1000, 1000, 1000, 1000}, 240, true}, // 4 runs a node
			{"tree/exchange-spills", []int{1400, 1400, 1400}, 16, true},          // 70 runs a node
		} {
			for _, kind := range []dist.Kind{dist.Uniform, dist.Exponential} {
				label := fmt.Sprintf("%s/budget/%s/%v", tr, c.name, kind)
				parts := make([][]uint64, len(c.shares))
				for i, n := range c.shares {
					parts[i] = dist.Gen{Kind: kind, Seed: 83 + uint64(i)*7919, Domain: 1 << 62}.Keys(n)
				}
				opts := Options{Procs: len(parts), WorkersPerProc: 2, Transport: tr, BufferBytes: 2048,
					MemoryBudget: c.budget * int64(entryBytes[uint64]()), SpillDir: t.TempDir()}
				for name, rep := range refsCodecCases(t, label, opts, parts) {
					// Step 1 spills the shares it chunks whole, as runs of
					// refs: 16 bytes a key whatever the codec.
					step1 := int64(0)
					for _, n := range c.shares {
						if opts.step1Chunk(n) < n {
							step1 += int64(n) * 16
						}
					}
					if rep.SpillBytes < step1 || rep.SpillBytes > step1 != c.spills {
						t.Fatalf("%s/%s: %d bytes spilled, %d of them step 1's; want the exchange to spill: %v",
							label, name, rep.SpillBytes, step1, c.spills)
					}
				}
			}
		}
	}
	for _, tr := range []string{transport.KindChan, transport.KindTCP} {
		// Without the investigator every copy of a constant key goes to one
		// node: it receives p shares while each share fits the budget, so
		// the exchange spills and step 1 does not.
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
			requireMatchesReference(t, comm.U64Codec{}, res, parts, label)
			checkNoLeak(t, e)
		}
	}
	for _, kind := range []dist.Kind{dist.Uniform, dist.FewDistinct} {
		keys := dist.Gen{Kind: kind, Seed: 89, Domain: 1 << 62}.Keys(1400)
		floats := refsKeys([][]uint64{keys}, refsFloat)[0]
		refsStep1Case(t, fmt.Sprintf("tree/step-1-alone/%v", kind), comm.U64Codec{}, keys, 16)
		refsStep1Case(t, fmt.Sprintf("tree/step-1-alone/%v/float64", kind), comm.F64Codec{}, floats, 16)
		refsStep1Case(t, fmt.Sprintf("rounds/step-1-alone/%v", kind), comm.U64Codec{}, keys, 320)
		refsStep1Case(t, fmt.Sprintf("rounds/step-1-alone/%v/float64", kind), comm.F64Codec{}, floats, 320)
	}
}

// refsStep1Case runs step 1 alone over keys on node 0 of two engines
// under a budget of budget entries, one under codec, which frames refs,
// one under the entry path's codec, and requires both shares to be the
// same sorted refs into keys — step 1 does not depend on how step 5
// sends — both to have spilled and read back the same bytes, and the
// temporary memory to peak alike.
// The label says whether its runs take the rounds (up to 64) or the tree.
// Blocks are small, so a run spans several, as under a large budget: the
// merge holds a block of each run, far less than the chunk.
func refsStep1Case[K cmp.Ordered](t *testing.T, label string, codec comm.Codec[K], keys []K, budget int64) {
	t.Helper()
	opts := Options{Procs: 1, WorkersPerProc: 2, MemoryBudget: budget * int64(entryBytes[K]())}
	step1 := func(c comm.Codec[K]) ([]lsort.NormRef, *sortRun[K]) {
		o := opts
		o.SpillDir = t.TempDir()
		e, err := NewEngine[K](o, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		s := testSortRun(e)
		s.runs.blockBytes = 1 << 10
		s.src = &keySource[K]{keys: keys}
		refs, err := s.localSort()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		t.Cleanup(s.recycleRetired)
		return refs, s
	}
	got, gs := step1(codec)
	want, ws := step1(entryPathCodec[K]{codec})
	if len(got) != len(keys) || len(want) != len(keys) {
		t.Fatalf("%s: %d and %d refs for %d keys", label, len(got), len(want), len(keys))
	}
	denorm, _ := comm.RefDenorm(codec)
	for i, w := range want {
		g := got[i]
		if g != w || !bytes.Equal(keyBytes(codec, denorm(g.Norm)), keyBytes(codec, keys[g.Idx])) {
			t.Fatalf("%s: position %d holds ref %+v under the ref codec, %+v under the entry path's", label, i, g, w)
		}
	}
	chunk := opts.step1Chunk(len(keys))
	if runs := (len(keys) + chunk - 1) / chunk; runs < 2 || runs <= 64 == strings.HasPrefix(label, "tree/") {
		t.Fatalf("%s: %d runs a node", label, runs)
	}
	if gp, wp := gs.node.tracker.Peak(), ws.node.tracker.Peak(); gp == 0 || gp != wp {
		t.Fatalf("%s: temporary memory peaked at %d bytes under the ref codec, %d under the entry path's", label, gp, wp)
	}
	gb, gr := gs.runs.spillBytes.Load(), gs.runs.spillReads.Load()
	wb, wr := ws.runs.spillBytes.Load(), ws.runs.spillReads.Load()
	if gb == 0 || gb != wb || gr != wr {
		t.Fatalf("%s: spilled %d and read %d bytes by ref, %d and %d by entry", label, gb, gr, wb, wr)
	}
}

// TestRefsPathPanicGivesEverythingBack: a panic in a sort by ref's step 1
// (the norm giving out while the refs are built, in one chunk or in a
// later chunk of a budgeted share, after earlier chunks were written as
// runs) or step 6 (the inverse giving out while the result is written,
// alone and beside the helper goroutine) unwinds with every ref and
// provenance slab back in its pool and the tracker at zero.
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

		e2 := newTestEngine(t, Options{Procs: 3, WorkersPerProc: workers,
			MemoryBudget: 1000 * int64(entryBytes[uint64]()), SpillDir: t.TempDir()})
		s = testSortRun(e2)
		s.byRef = true
		s.src = &keySource[uint64]{keys: keys}
		s.runs.cmps.norm = func(k uint64) uint64 {
			if k == keys[4000] {
				panic("norm gave out")
			}
			return k
		}
		mustPanic(t, "step 1's chunk runs", func() { s.localSort() })
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
				refs[i] = lsort.NormRef{Norm: uint64(3*i + src), Proc: uint32(src), Idx: uint32(i)}
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

// TestRefsPathSpillErrorExits drives a budgeted sort by ref out through
// step 1's chunk runs, which it writes from refs and reads back as refs:
// a block write failing, a block read failing, a ref block whose bytes
// no longer match their checksum, and the sort cancelled while the runs
// merge back. After each failed sort every ref slab is back (the ref pool
// saw as many puts as gets), the entry pool was never touched — a sort by
// ref builds no entry before step 6 — every node's tracker is at zero,
// SpillDir is empty and the next sort on the engine is byte-correct. The
// file the checksum failed on is closed, not kept for the next stage.
func TestRefsPathSpillErrorExits(t *testing.T) {
	const per = 3000
	budget := spillBudget[uint64](per) // 8 chunk runs a node
	for _, c := range []struct {
		name  string
		procs int
		arm   func(t *testing.T, dir string, cancel func())
		want  error
	}{
		{"write-block", 3, func(*testing.T, string, func()) {
			failpoint.Set(spill.FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 2, Count: -1})
		}, failpoint.ErrInjected},
		{"read-block", 3, func(*testing.T, string, func()) {
			failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 2, Count: -1})
		}, failpoint.ErrInjected},
		// One node, so the one scratch file is the one read: its first
		// read stalls while a byte of the first ref block flips.
		{"corrupt-block", 1, func(t *testing.T, dir string, _ func()) {
			if !descriptorsListed() {
				t.Skip("no /proc/self/fd: an unlinked scratch file cannot be reached")
			}
			failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeDelay, Delay: 50 * time.Millisecond})
			onFire(spill.FpReadBlock, func() { flipScratchByte(dir) })
		}, spill.ErrCorrupt},
		// The reads stall and the first stall cancels the sort; the merge
		// finishes its rounds and the sort stops at the next stage.
		{"cancel-mid-merge", 3, func(_ *testing.T, _ string, cancel func()) {
			failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeDelay, Nth: 2, Count: 60, Delay: 5 * time.Millisecond})
			onFire(spill.FpReadBlock, cancel)
		}, context.Canceled},
	} {
		t.Run(c.name, func(t *testing.T) {
			failpoint.Reset()
			t.Cleanup(failpoint.Reset)
			dir := t.TempDir()
			e := newTestEngine(t, Options{Procs: c.procs, WorkersPerProc: 2, MemoryBudget: budget, SpillDir: dir})
			parts := mkParts(dist.Uniform, c.procs, per, 97)
			want, err := e.Sort(parts)
			if err != nil {
				t.Fatalf("clean sort: %v", err)
			}
			if n := int64(want.Len()); want.Report.ResidentBytes != n*(refBytes+int64(entryBytes[uint64]())) || want.Report.SpillBytes == 0 {
				t.Fatalf("clean sort held %d bytes for %d keys and spilled %d; it did not go by ref through its runs",
					want.Report.ResidentBytes, n, want.Report.SpillBytes)
			}

			refGets0, refPuts0 := refTraffic(e)
			entryGets0 := entryGets(e)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c.arm(t, dir, cancel)
			_, err = e.SortCtx(ctx, parts)
			var fail *Failure
			if !errors.Is(err, c.want) || c.want != context.Canceled && (!errors.As(err, &fail) || fail.Stage != StageLocalSort) {
				t.Fatalf("sort returned %v, want %v in %v", err, c.want, StageLocalSort)
			}
			failpoint.Reset()
			refGets1, refPuts1 := refTraffic(e)
			if gets, puts := refGets1-refGets0, refPuts1-refPuts0; gets != puts || gets == 0 {
				t.Fatalf("failed sort took %d ref slabs and returned %d", gets, puts)
			}
			if gets := entryGets(e) - entryGets0; gets != 0 {
				t.Fatalf("failed sort took %d entry slabs", gets)
			}
			checkNoLeak(t, e)
			requireEmptyDir(t, dir)
			if c.want == spill.ErrCorrupt {
				if open := openFilesUnder(dir); open != 0 {
					t.Fatalf("%d scratch files kept after a checksum failed on one", open)
				}
			}

			got, err := e.Sort(parts)
			if err != nil {
				t.Fatalf("follow-up sort: %v", err)
			}
			requireMatchesReference(t, comm.U64Codec{}, got, parts, "follow-up")
			sameOutput(t, want, got)
			checkNoLeak(t, e)
		})
	}
}

// entryGets totals every node's entry-pool gets.
func entryGets(e *Engine[uint64]) int64 {
	total := int64(0)
	for _, n := range e.nodes {
		gets, _, _ := n.entryPool.Stats()
		total += gets
	}
	return total
}
