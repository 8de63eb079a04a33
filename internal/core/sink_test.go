package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
)

// poolTraffic totals every node's slab-pool gets and puts, entry and ref
// pools alike.
func poolTraffic(e *Engine[uint64]) (gets, puts int64) {
	for _, n := range e.nodes {
		g, _, p := n.entryPool.Stats()
		gets += g
		puts += p
	}
	refGets, refPuts := refTraffic(e)
	return gets + refGets, puts + refPuts
}

// refTraffic totals every node's ref-pool gets and puts: step 1's sort
// refs, the resident step 6's, and the slab every cursor merge under an
// exact norm runs its rounds in.
func refTraffic(e *Engine[uint64]) (gets, puts int64) {
	for _, n := range e.nodes {
		g, _, p := n.refPool.Stats()
		gets += g
		puts += p
	}
	return gets, puts
}

// sinkExit is one way out of a sort around its exchange sink: how to arm
// it (cancel aborts the sort's context) and what the failed sort's error
// must be — a failure in stage, or, with cancelled set, context.Canceled.
type sinkExit struct {
	name      string
	budget    int64
	arm       func(cancel func())
	site      string // the failpoint that must have fired
	stage     SchedStage
	cancelled bool
	inMerge   bool // the exit is inside a cursor merge: ref slabs were out
}

// TestSinkErrorExits drives both exchange sinks out through every error
// exit around them: a failure entering the exchange (no sink yet), inside
// it (an assembly write, with peer chunks and the concurrent sender in
// flight) and at the merge boundary (a completed exchange that will never
// merge). The spilled sink and step 1's chunk runs add the scratch file's
// own: its creation failing, a block write failing, and the sort cancelled
// with runs sealed that nobody will open — each once in step 1 and once in
// the exchange — and the merges' that read the runs back with a ref slab
// out: a block read failing in step 1's chunk merge and in step 6, and the
// sort cancelled under step 1's. The schedules never stop firing, so every node fails and
// none keeps a result slab. After each failed sort the engine must hold
// nothing: every slab taken went back to its pool, every node's
// temporary-memory tracker is at zero (Figure 11 still balances), SpillDir
// is empty — and the next sort on the same engine is byte-correct.
func TestSinkErrorExits(t *testing.T) {
	const procs, per = 4, 3000
	parts := mkParts(dist.RightSkewed, procs, per, 99)
	spilled := spillBudget[uint64](per)

	var exits []sinkExit
	for sink, budget := range map[string]int64{"resident": -1, "spilled": spilled} {
		for site, stage := range map[string]SchedStage{
			fpExchange: StageExchange, fpMerge: StageMerge, "datamgr/assembly-write": StageExchange,
		} {
			for _, mode := range []failpoint.Mode{failpoint.ModeError, failpoint.ModePanic} {
				exits = append(exits, sinkExit{
					name:   fmt.Sprintf("%s/%s/%s", sink, strings.ReplaceAll(site, "/", "-"), mode),
					budget: budget, site: site, stage: stage,
					arm: func(func()) { failpoint.Set(site, failpoint.Schedule{Mode: mode, Count: -1}) },
				})
			}
		}
	}
	// Step 1 under the spilled budget: every node creates one scratch file
	// and writes each chunk as a run of one block, so the first create and
	// the first block write past those belong to the exchange.
	chunk := chunkEntries(spilled, int64(entryBytes[uint64]()), 1)
	chunks := (per + chunk - 1) / chunk
	for _, at := range []struct {
		stage, mergeStage        SchedStage
		nthFile, nthBlk, nthRead int
	}{{StageLocalSort, StageLocalSort, 1, 3, 2}, {StageExchange, StageMerge, procs + 1, procs*chunks + 1, procs*chunks + 2}} {
		exits = append(exits,
			// The stage's runs are read back by the merge that follows it —
			// step 1's own chunk merge, step 6 for the exchange's — and every
			// read from the stage's second on fails: inside a merge that
			// holds its ref slab, primed or rounds in.
			sinkExit{name: fmt.Sprintf("spilled/read-block/%v", at.stage), budget: spilled,
				site: spill.FpReadBlock, stage: at.mergeStage, inMerge: true,
				arm: func(func()) {
					failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: at.nthRead, Count: -1})
				}},

			sinkExit{name: fmt.Sprintf("spilled/scratch-create/%v", at.stage), budget: spilled,
				site: spill.FpCreateScratch, stage: at.stage,
				arm: func(func()) {
					failpoint.Set(spill.FpCreateScratch, failpoint.Schedule{Mode: failpoint.ModeError, Nth: at.nthFile, Count: -1})
				}},
			sinkExit{name: fmt.Sprintf("spilled/block-write/%v", at.stage), budget: spilled,
				site: spill.FpWriteBlock, stage: at.stage,
				arm: func(func()) {
					failpoint.Set(spill.FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: at.nthBlk, Count: -1})
				}},
			// Every block write from the nth on stalls, and the first stall
			// cancels the sort: the runs sealed so far are never opened, and
			// the writers still open never seal.
			sinkExit{name: fmt.Sprintf("spilled/cancel-sealed-runs/%v", at.stage), budget: spilled,
				site: spill.FpWriteBlock, cancelled: true,
				arm: func(cancel func()) {
					failpoint.Set(spill.FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModeDelay, Nth: at.nthBlk, Count: -1, Delay: 20 * time.Millisecond})
					onFire(spill.FpWriteBlock, cancel)
				}})
	}

	// Step 1's chunk merge runs out while the sort is being cancelled: the
	// reads stall, the merge — it does not watch the context — finishes its
	// rounds, and the sort stops at the next stage boundary. (Step 6 is the
	// last stage: a node whose merge finishes there keeps its result slab.)
	exits = append(exits, sinkExit{name: "spilled/cancel-mid-merge/local-sort", budget: spilled,
		site: spill.FpReadBlock, cancelled: true, inMerge: true,
		arm: func(cancel func()) {
			failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeDelay, Nth: 2, Count: procs * chunks, Delay: 5 * time.Millisecond})
			onFire(spill.FpReadBlock, cancel)
		}})

	for _, exit := range exits {
		t.Run(exit.name, func(t *testing.T) {
			failpoint.Reset()
			t.Cleanup(failpoint.Reset)
			dir := t.TempDir()
			e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2,
				MemoryBudget: exit.budget, SpillDir: dir})
			want, err := e.Sort(parts)
			if err != nil {
				t.Fatalf("clean sort: %v", err)
			}
			if spilled := want.Report.SpillBytes > 0; spilled != (exit.budget > 0) {
				t.Fatalf("clean sort spilled %d bytes under budget %d", want.Report.SpillBytes, exit.budget)
			}

			gets0, puts0 := poolTraffic(e)
			refGets0, refPuts0 := refTraffic(e)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			exit.arm(cancel)
			_, err = e.SortCtx(ctx, parts)
			if err == nil {
				t.Fatal("injected sort succeeded")
			}
			if failpoint.Fired(exit.site) == 0 {
				t.Fatalf("failpoint %s never fired", exit.site)
			}
			failpoint.Reset()
			var fail *Failure
			switch {
			case exit.cancelled:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled sort returned %v", err)
				}
			case !errors.As(err, &fail) || fail.Stage != exit.stage:
				t.Fatalf("sort failed with %v, want a failure in %v", err, exit.stage)
			}

			gets1, puts1 := poolTraffic(e)
			if gets, puts := gets1-gets0, puts1-puts0; gets != puts {
				t.Fatalf("failed sort took %d slabs and returned %d", gets, puts)
			}
			refGets1, refPuts1 := refTraffic(e)
			if gets, puts := refGets1-refGets0, refPuts1-refPuts0; gets != puts || exit.inMerge && gets == 0 {
				t.Fatalf("failed sort took %d ref slabs and returned %d", gets, puts)
			}
			checkNoLeak(t, e)
			requireEmptyDir(t, dir)

			got, err := e.Sort(parts)
			if err != nil {
				t.Fatalf("follow-up sort: %v", err)
			}
			requireMatchesReference(t, comm.U64Codec{}, got, parts, "follow-up")
			sameOutput(t, want, got)
			checkNoLeak(t, e)
			requireEmptyDir(t, dir)
		})
	}
}

// TestSpilledSink holds the spilled sink to its own bookkeeping. Chunks
// from every source, written concurrently, read back as that source's
// run, entries and refs alike, each run complete once its count has
// landed, and the merge is the stable merge of the runs. A source
// expecting nothing has no run, and an empty chunk for it is a no-op. A
// chunk past its source's region, or from no source, is an error. And
// discard gives the scratch file back exactly once however often it is
// called, SpillDir never showing it.
func TestSpilledSink(t *testing.T) {
	newSink := func(t *testing.T, perSrc []int, byRef bool) (*spilledSink[uint64], string) {
		t.Helper()
		dir := t.TempDir()
		s := testSortRun(newTestEngine(t, Options{Procs: len(perSrc), MemoryBudget: 1, SpillDir: dir}))
		s.byRef = byRef
		sink, err := s.newExchangeSink(perSrc)
		if err != nil {
			t.Fatal(err)
		}
		return sink.(*spilledSink[uint64]), dir
	}

	for _, c := range []struct{ byRef, keys bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		name := fmt.Sprintf("runs-read-back/byRef=%v", c.byRef)
		if c.keys {
			name += "/keys"
		}
		byRef := c.byRef
		t.Run(name, func(t *testing.T) {
			perSrc := []int{1000, 0, 2500, 7}
			sink, dir := newSink(t, perSrc, byRef)
			sink.s.keys = c.keys
			runs := make([][]comm.Entry[uint64], len(perSrc))
			var wg sync.WaitGroup
			for src, n := range perSrc {
				runs[src] = make([]comm.Entry[uint64], n)
				for i := range runs[src] {
					runs[src][i] = comm.Entry[uint64]{Key: uint64(i), Proc: uint32(src), Index: uint32(i)}
				}
				wg.Add(1)
				go func(run []comm.Entry[uint64]) {
					defer wg.Done()
					for lo := 0; lo < len(run); lo += 300 {
						m := comm.Message[uint64]{Kind: comm.KData, Src: src, Entries: run[lo:min(lo+300, len(run))]}
						if byRef {
							m.Refs = make([]lsort.NormRef, len(m.Entries))
							for i, e := range m.Entries {
								m.Refs[i] = lsort.NormRef{Norm: e.Key, Proc: e.Proc, Idx: e.Index}
							}
							m.Entries = nil
						}
						if err := sink.Write(m); err != nil {
							t.Error(err)
							return
						}
					}
				}(runs[src])
			}
			wg.Wait()
			for src, run := range runs {
				if !sink.RunComplete(src) {
					t.Fatalf("source %d not complete after all its writes", src)
				}
				if w := sink.writers[src]; (w == nil) != (len(run) == 0) {
					t.Fatalf("source %d of %d entries: writer %v", src, len(run), w)
				}
				if len(run) > 0 {
					got := readRun(t, sink.writers[src].Run())
					if !slices.EqualFunc(got, run, sameKeyEntry) {
						t.Fatalf("source %d: its run reads back otherwise", src)
					}
				}
			}
			want := slices.SortedStableFunc(slices.Values(slices.Concat(runs...)), func(a, b comm.Entry[uint64]) int {
				return cmp.Compare(a.Key, b.Key)
			})
			got, err := sink.merge()
			if err != nil {
				t.Fatal(err)
			}
			if c.keys {
				wantKeys := make([]uint64, len(want))
				for i, e := range want {
					wantKeys[i] = e.Key
				}
				if got.entries != nil || !slices.Equal(got.keys, wantKeys) || cap(got.keys) != len(want) {
					t.Fatal("the key column is not the keys of the stable merge of the runs")
				}
			} else if !slices.EqualFunc(got.entries, want, sameKeyEntry) {
				t.Fatal("the merge is not the stable merge of the runs")
			}
			if sink.s.runs.spillBytes.Load() <= 0 {
				t.Fatal("no spilled bytes counted")
			}
			requireEmptyDir(t, dir)
		})
	}

	t.Run("empty-source-has-no-run", func(t *testing.T) {
		sink, _ := newSink(t, []int{0, 1}, false)
		defer sink.discard()
		if sink.writers[0] != nil || !sink.RunComplete(0) {
			t.Fatal("a source expecting nothing has a run, or is not complete from the start")
		}
		if err := sink.Write(comm.Message[uint64]{Kind: comm.KData, Src: 0}); err != nil {
			t.Fatalf("empty chunk for a source expecting nothing: %v", err)
		}
		if err := sink.Write(comm.Message[uint64]{Kind: comm.KData, Src: 1, Entries: []comm.Entry[uint64]{{Key: 7, Proc: 1}}}); err != nil {
			t.Fatal(err)
		}
		if !sink.RunComplete(1) {
			t.Fatal("source 1 not complete after its only expected entry landed")
		}
	})

	t.Run("region-overflow-is-an-error", func(t *testing.T) {
		sink, _ := newSink(t, []int{2}, false)
		defer sink.discard()
		if err := sink.Write(comm.Message[uint64]{Kind: comm.KData, Src: 0, Entries: make([]comm.Entry[uint64], 3)}); err == nil {
			t.Fatal("a chunk past its source's region landed")
		}
		if err := sink.Write(comm.Message[uint64]{Kind: comm.KData, Src: 1}); err == nil {
			t.Fatal("a chunk from no source landed")
		}
	})

	t.Run("discard-gives-the-scratch-back-once", func(t *testing.T) {
		sink, dir := newSink(t, []int{2}, false)
		pool, scratch := sink.s.node.eng.scratch, sink.scratch
		sink.discard()
		sink.discard() // idempotent
		first, err := pool.Take()
		if err != nil {
			t.Fatal(err)
		}
		second, err := pool.Take()
		if err != nil {
			t.Fatal(err)
		}
		if first != scratch || second == scratch {
			t.Fatal("discard did not give the scratch file back exactly once")
		}
		pool.Give(first)
		pool.Give(second)
		requireEmptyDir(t, dir)
	})
}

// sameKeyEntry compares two key-only entries.
func sameKeyEntry(a, b comm.Entry[uint64]) bool {
	return a.Key == b.Key && a.Proc == b.Proc && a.Index == b.Index && a.Payload == nil && b.Payload == nil
}

// readRun reads a sealed scratch run of uint64 entries back whole.
func readRun(t *testing.T, run spill.Run) []comm.Entry[uint64] {
	t.Helper()
	r := spill.OpenRun(run, comm.U64Codec{}, spill.ReaderOpts[uint64]{})
	defer r.Close()
	var got []comm.Entry[uint64]
	for {
		batch, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			return got
		}
		got = append(got, batch...)
	}
}
