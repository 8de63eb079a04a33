package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
)

// This file is step 1, once. The paper's step 1 — each processor sorts
// its share, the data divided equally among its workers — has one
// implementation here, the run former, whatever the input is and
// wherever the sorted runs end up. Every input is one indexed source
// (shareSource), an in-memory slice of bare keys or records — a node's
// input, or the chunk an upload spool stages — and the former sorts
// 16-byte (norm, index) refs into it and nothing else: a share comes out
// as sorted refs into the node's own input, a budgeted share is sorted a
// chunk of indexes at a time, each chunk written to a scratch file as
// refs and merged back, and a spool's chunk is written as the key-only
// entries its refs and staged keys make (spooled.go). Where a run lives
// is a property of the run; the merge side already treats it that way
// through lsort.Cursor, and the former is the same idea on the formation
// side.

// shareSource is one node's step-1 input: keys that stay where they are
// for the whole sort, addressed by their index in the source. The former
// sorts one (norm, node, index) ref per key and never moves a key, so the
// sorted share is refs into the source — Proc the node, Idx a key's
// index — and steps 2 to 5 read keys and build entries through it.
type shareSource[K cmp.Ordered] interface {
	// size is how many keys the source holds.
	size() int
	// refs writes dst[i] = (norm of key lo+i, the node, lo+i).
	refs(dst []lsort.NormRef, lo int, norm func(K) uint64)
	// less orders the keys at two indexes.
	less(i, j uint32) bool
	// key is the key at index i.
	key(i uint32) K
	// emit writes dst[j] = the provenance-stamped entry at index
	// order[j].Idx; dst is as long as order.
	emit(dst []comm.Entry[K], order []lsort.NormRef)
}

// ErrShareTooLarge rejects a step-1 input, or a step-6 assembly, of more
// entries than the uint32 provenance index (comm.Entry.Index,
// lsort.NormRef.Idx) can tell apart. Classify reports it data-dependent.
var ErrShareTooLarge = errors.New("core: share exceeds the 2^32-1 entries an origin index can address")

// checkShare guards a source before anything is sized from it.
func checkShare[K cmp.Ordered](src shareSource[K]) error {
	if n := src.size(); uint64(n) > math.MaxUint32 {
		return fmt.Errorf("%w: %d entries", ErrShareTooLarge, n)
	}
	return nil
}

// keySource is one node's bare keys.
type keySource[K cmp.Ordered] struct {
	keys []K
	node uint32
}

func (s *keySource[K]) size() int { return len(s.keys) }

func (s *keySource[K]) refs(dst []lsort.NormRef, lo int, norm func(K) uint64) {
	for i, k := range s.keys[lo : lo+len(dst)] {
		dst[i] = lsort.NormRef{Norm: norm(k), Proc: s.node, Idx: uint32(lo + i)}
	}
}

func (s *keySource[K]) less(i, j uint32) bool { return s.keys[i] < s.keys[j] }

func (s *keySource[K]) key(i uint32) K { return s.keys[i] }

// entry is the entry at index i.
func (s *keySource[K]) entry(i int) comm.Entry[K] {
	return comm.Entry[K]{Key: s.keys[i], Proc: s.node, Index: uint32(i)}
}

func (s *keySource[K]) emit(dst []comm.Entry[K], order []lsort.NormRef) {
	for j, r := range order {
		dst[j] = s.entry(int(r.Idx))
	}
}

// recSource is one node's key+payload records.
type recSource[K cmp.Ordered] struct {
	recs []comm.Record[K]
	node uint32
}

func (s *recSource[K]) size() int { return len(s.recs) }

func (s *recSource[K]) refs(dst []lsort.NormRef, lo int, norm func(K) uint64) {
	for i := range s.recs[lo : lo+len(dst)] {
		dst[i] = lsort.NormRef{Norm: norm(s.recs[lo+i].Key), Proc: s.node, Idx: uint32(lo + i)}
	}
}

func (s *recSource[K]) less(i, j uint32) bool { return s.recs[i].Key < s.recs[j].Key }

func (s *recSource[K]) key(i uint32) K { return s.recs[i].Key }

func (s *recSource[K]) emit(dst []comm.Entry[K], order []lsort.NormRef) {
	for j, r := range order {
		rec := &s.recs[r.Idx]
		dst[j] = comm.Entry[K]{Key: rec.Key, Payload: rec.Payload, Proc: s.node, Index: r.Idx}
	}
}

// runFormer forms and reopens sorted runs for one consumer: a node of the
// resident pipeline (sortRun), an upload spool, or a spooled job's merge.
type runFormer[K cmp.Ordered] struct {
	ctx     context.Context
	codec   comm.Codec[K]
	cmps    sortCmps[K]
	workers int
	// pool, refPool and tracker supply and account every slab the former
	// takes: staging, refs, merge batches and the readers' decoded blocks.
	pool    *alloc.SlabPool[comm.Entry[K]]
	refPool *alloc.SlabPool[lsort.NormRef]
	tracker *alloc.Tracker
	// Spilled runs are blocks of a scratch file, one file per spilling
	// stage: whoever needs the stage's runs on disk creates it, hands it
	// to sortRefs or mergePass, and closes it once the runs are consumed.
	blockBytes int // spilled block size; 0 is the spill tier's default

	// Bytes written to and read back from scratch files: the Report's
	// SpillBytes and SpillReads.
	spillBytes atomic.Int64
	spillReads atomic.Int64
}

// takeSlab hands out an n-element slab of pool accounted in tracker as
// temporary memory; giveSlab returns it.
func takeSlab[E any](tracker *alloc.Tracker, pool *alloc.SlabPool[E], n int) []E {
	var e E
	tracker.Alloc(int64(n) * int64(unsafe.Sizeof(e)))
	return pool.Get(n)
}

func giveSlab[E any](tracker *alloc.Tracker, pool *alloc.SlabPool[E], slab []E) {
	var e E
	tracker.Free(int64(len(slab)) * int64(unsafe.Sizeof(e)))
	pool.Put(slab)
}

// take and takeRefs hand out entry and ref slabs; give and giveRefs
// return them.
func (f *runFormer[K]) take(n int) []comm.Entry[K]     { return takeSlab(f.tracker, f.pool, n) }
func (f *runFormer[K]) give(slab []comm.Entry[K])      { giveSlab(f.tracker, f.pool, slab) }
func (f *runFormer[K]) takeRefs(n int) []lsort.NormRef { return takeSlab(f.tracker, f.refPool, n) }
func (f *runFormer[K]) giveRefs(slab []lsort.NormRef)  { giveSlab(f.tracker, f.refPool, slab) }

// refBytes is the in-memory size of one lsort.NormRef.
const refBytes = int64(unsafe.Sizeof(lsort.NormRef{}))

// chunkEntries sizes a chunk of elements of eb bytes whose sort takes as
// much again: half the budget for the chunk, half for sorting it, at
// least floor elements so tiny budgets still make progress. Step 1 weighs
// a key as the ref it sorts (step1Chunk), a spool as the entry it stages
// and writes (spoolChunk).
func chunkEntries(budget, eb int64, floor int) int {
	return max(int(budget/(2*eb)), floor)
}

// sortStaged is the step-1 kernel: it sorts the refs of src's keys
// [lo, lo+len(refs)), one (norm, index) ref per key — a radix over the
// bits that tell them apart, its passes shared among the workers — and
// returns them in refs or in scratch, each as long as the chunk. The ref
// sort is stable and the refs start in index order, so equal keys stay
// in index order; an inexact norm has its equal-norm runs finished under
// the real keys.
func (f *runFormer[K]) sortStaged(src shareSource[K], lo int, refs, scratch []lsort.NormRef) []lsort.NormRef {
	src.refs(refs, lo, f.cmps.norm)
	order := lsort.SortNormRefs(refs, scratch, f.workers)
	if f.cmps.inexact {
		lsort.SortEqualNormRefs(order, src.less)
	}
	return order
}

// sortRefs is step 1 for one node: the refs standing for the keys of
// node's source, sorted — the share, in a slab of the ref pool that is
// resident until the sort joins, Idx a key's index in src. A share of one
// chunk (to nil) is sorted in that slab and a scratch one, both temporary
// memory while it does. A larger one is sorted chunk keys at a time in a
// slab of 2·chunk refs, each chunk written as one run of refs in to, and
// the runs merged back into the share by the stable cursor merge — under
// an inexact norm with src's keys breaking equal norms. Chunk sorts are
// stable and the merge breaks equal keys by run, so the share is the
// one-chunk sort's, ref for ref. Every other slab goes back, and on an
// error or a panic the share does too.
func (f *runFormer[K]) sortRefs(src shareSource[K], chunk int, node uint32, to *spill.Scratch) ([]lsort.NormRef, error) {
	n := src.size()
	if to == nil {
		refs, scratch := f.takeRefs(n), f.takeRefs(n)
		sorted := false
		defer func() {
			f.giveRefs(scratch)
			if !sorted {
				f.giveRefs(refs)
			}
		}()
		if order := f.sortStaged(src, 0, refs, scratch); n > 0 && &order[0] == &scratch[0] {
			refs, scratch = scratch, refs
		}
		f.tracker.Free(int64(n) * refBytes)
		sorted = true
		return refs, nil
	}

	share, merged := f.refPool.Get(n), false
	refs := f.takeRefs(2 * chunk) // a chunk's refs, then as many of scratch
	defer func() {
		if refs != nil {
			f.giveRefs(refs)
		}
		if !merged {
			f.refPool.Put(share)
		}
	}()
	runs := make([]spill.Run, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		m := min(chunk, n-lo)
		run, err := f.writeRefRun(to, f.sortStaged(src, lo, refs[:m], refs[chunk:chunk+m]))
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	f.giveRefs(refs) // before the merge takes its own
	refs = nil
	var less func(a, b lsort.NormRef) bool
	if f.cmps.inexact {
		less = func(a, b lsort.NormRef) bool { return src.less(a.Idx, b.Idx) }
	}
	// The share is the merge's one batch: the merge fills it in place.
	fromNode := func(int) uint32 { return node }
	err := mergeRuns(f, runs, openRefs(f, refRunCodec{}, fromNode), refNorm, less, share, n, func(out []lsort.NormRef, at int) error {
		if &out[0] != &share[at] {
			copy(share[at:], out)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged = true
	return share, nil
}

// Step 1's ref runs are framed under refRunCodec whatever the sort's
// codec: a ref is written as the key-only uint64 entry (norm, node,
// index), 16 bytes, and read back as the ref it is.
type refRunCodec = comm.U64Codec

// writeRefRun writes sorted refs to the scratch file as one run.
func (f *runFormer[K]) writeRefRun(to *spill.Scratch, refs []lsort.NormRef) (spill.Run, error) {
	w := spill.NewRunWriter(to, refRunCodec{}, f.blockBytes)
	defer w.Abort() // lets go of the block buffer on a panic; nothing after Finish
	return seal(f, w, w.AppendRefs(refs))
}

// seal finishes a run whose appends returned err and hands it over. A
// failed or cancelled run lets go of its block buffer and costs the
// scratch some dead bytes and nothing else.
func seal[K cmp.Ordered, W any](f *runFormer[K], w *spill.Writer[W], err error) (spill.Run, error) {
	if err == nil {
		err = w.Finish()
	}
	if err != nil {
		w.Abort()
		return spill.Run{}, err
	}
	f.spillBytes.Add(w.BytesWritten())
	return w.Run(), nil
}

// runReader is a reader of one run as merge cursor: its entries
// (spill.RunReader) or its refs (spill.RefReader).
type runReader[E any] interface {
	lsort.Cursor[E]
	BytesRead() int64
	Close() error
}

// openEntries opens a run as a cursor of its entries.
func (f *runFormer[K]) openEntries(_ int, run spill.Run) runReader[comm.Entry[K]] {
	return spill.OpenRun(run, f.codec, spill.ReaderOpts[K]{Pool: f.pool, Tracker: f.tracker, EntryBytes: int64(entryBytes[K]())})
}

// openRefs returns the open that reads run i, key-only entries framed
// under c, as a cursor of the refs standing for them, every one from
// origin(i): another origin, or a payload, is spill.ErrCorrupt.
func openRefs[K cmp.Ordered, C any](f *runFormer[K], c comm.Codec[C], origin func(run int) uint32) func(int, spill.Run) runReader[lsort.NormRef] {
	opts := spill.ReaderOpts[C]{RefPool: f.refPool, Tracker: f.tracker}
	return func(i int, run spill.Run) runReader[lsort.NormRef] { return spill.OpenRefRun(run, origin(i), c, opts) }
}

// refNorm is a ref's norm, read in place.
func refNorm(r *lsort.NormRef) uint64 { return r.Norm }

// openMerge opens runs through open, one cursor a run in order — an
// empty run gets an empty cursor, so the merge's tie-break stays the run
// index — and merges them into one stable cursor a batch at a time, under
// norm and, to order equal norms, less (nil: they are equal elements): in
// rounds over a ref slab of f's under an exact norm up to lsort's round
// fan-in, in the loser tree otherwise. Priming pulls a block a run, which
// can fail. done gives the slab back, folds the bytes read into
// spillReads and closes the readers; the batch, and the runs' scratch
// file once done has run, are the caller's.
func openMerge[K cmp.Ordered, E any](f *runFormer[K], runs []spill.Run, open func(i int, run spill.Run) runReader[E],
	norm func(*E) uint64, less func(a, b E) bool, batch []E) (merged *lsort.MergeCursor[E], done func(), err error) {
	cursors := make([]lsort.Cursor[E], len(runs))
	for i, run := range runs {
		if run.Entries() == 0 {
			cursors[i] = lsort.NewSliceCursor[E](nil)
			continue
		}
		cursors[i] = open(i, run)
	}
	refs := f.takeRefs(lsort.MergeRefs(len(cursors), less == nil))
	done = func() {
		f.giveRefs(refs)
		for _, c := range cursors {
			if r, ok := c.(runReader[E]); ok {
				f.spillReads.Add(r.BytesRead())
				r.Close()
			}
		}
	}
	defer func() {
		if merged == nil { // an error, or a panic: no reader outlives the merge into a reused file
			done()
			done = nil
		}
	}()
	merged, err = lsort.NewMergeCursor(cursors, norm, less, batch, refs)
	return merged, done, err
}

// mergeRuns is the one merge of spilled runs: step 1's chunk runs, the
// spilled step 6 and a spooled ladder pass. It drains openMerge's cursor
// into emit, which takes each merged batch with its offset in the merge —
// batch, filled in place, or a lone run's own decoded block — and checks
// that the runs fill want exactly. Temporary memory is a decoded block a
// run, the rounds' slab and the caller's batch.
func mergeRuns[K cmp.Ordered, E any](f *runFormer[K], runs []spill.Run, open func(i int, run spill.Run) runReader[E],
	norm func(*E) uint64, less func(a, b E) bool, batch []E, want int, emit func(out []E, at int) error) error {
	merged, done, err := openMerge(f, runs, open, norm, less, batch)
	if err != nil {
		return err
	}
	defer done()
	for filled := 0; ; {
		out, err := merged.Next()
		if err != nil {
			return err
		}
		if len(out) == 0 || len(out) > want-filled {
			return filledExactly(filled+len(out), want)
		}
		if err := emit(out, filled); err != nil {
			return err
		}
		filled += len(out)
	}
}

// filledExactly checks that a spill merge produced the want elements its
// runs' block lists promised: runs that hold more or fewer are corrupt.
func filledExactly(filled, want int) error {
	if filled != want {
		return fmt.Errorf("core: spill merge produced %d of %d entries: %w", filled, want, spill.ErrCorrupt)
	}
	return nil
}

// runBatch is how many elements a merge that streams — the spilled step 6
// of a sort by ref or into a key column — holds at a time, and how many
// entries a spool builds at a time on their way to its run.
const runBatch = 1 << 10
