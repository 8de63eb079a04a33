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
	"pgxsort/internal/failpoint"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
)

// This file is step 1, once. The paper's step 1 — each processor sorts
// its share in parallel chunks and combines them with the balanced
// handler — has one implementation here, the run former, whatever the
// input is (bare keys, records, a section of an upload spool) and
// wherever the sorted runs end up (the node's entry buffer, blocks of a
// scratch file). Where a run lives is a property of the run; the merge
// side already treats it that way through lsort.Cursor, and the former is
// the same idea on the formation side.

// entrySource is one node's step-1 input. The former pulls it a chunk at
// a time and addresses the staged chunk by position: it sorts 16-byte
// (norm, position) refs and has the source put each entry in its sorted
// place, once. Entries leave provenance-stamped (origin node, index
// within the node's share), so the rest of the pipeline never sees what
// the input was.
type entrySource[K cmp.Ordered] interface {
	// size is how many entries the source yields in total.
	size() int
	// next stages the following chunk of at most max entries and returns
	// its length; 0 means the source is exhausted. The methods below read
	// the staged chunk.
	next(max int) (int, error)
	// refs writes dst[i] = (norm of the chunk's i-th key, i).
	refs(dst []lsort.NormRef, norm func(K) uint64)
	// less orders the keys at two chunk positions.
	less(i, j uint32) bool
	// emit returns the chunk as entries in the order the refs name:
	// element j is the entry at chunk position order[j].Idx. order, a
	// permutation of the chunk's positions, is consumed. The entries land
	// in buf when the source has to build them, and in the source's own
	// staging when they already exist there.
	emit(buf []comm.Entry[K], order []lsort.NormRef) []comm.Entry[K]
}

// ErrShareTooLarge rejects a step-1 input, or a step-6 assembly, of more
// entries than the uint32 provenance index (comm.Entry.Index,
// lsort.NormRef.Idx) can tell apart. Classify reports it data-dependent.
var ErrShareTooLarge = errors.New("core: share exceeds the 2^32-1 entries an origin index can address")

// checkShare guards a source before anything is sized from it.
func checkShare[K cmp.Ordered](src entrySource[K]) error {
	if n := src.size(); uint64(n) > math.MaxUint32 {
		return fmt.Errorf("%w: %d entries", ErrShareTooLarge, n)
	}
	return nil
}

// keySource yields one node's bare keys; the staged chunk is keys[lo:hi].
type keySource[K cmp.Ordered] struct {
	keys   []K
	node   uint32
	lo, hi int
}

func (s *keySource[K]) size() int { return len(s.keys) }

func (s *keySource[K]) next(max int) (int, error) {
	s.lo, s.hi = s.hi, min(s.hi+max, len(s.keys))
	return s.hi - s.lo, nil
}

func (s *keySource[K]) refs(dst []lsort.NormRef, norm func(K) uint64) {
	for i, k := range s.keys[s.lo:s.hi] {
		dst[i] = lsort.NormRef{Norm: norm(k), Idx: uint32(i)}
	}
}

func (s *keySource[K]) less(i, j uint32) bool {
	return s.keys[s.lo+int(i)] < s.keys[s.lo+int(j)]
}

// entry is the chunk's i-th entry.
func (s *keySource[K]) entry(i int) comm.Entry[K] {
	return comm.Entry[K]{Key: s.keys[s.lo+i], Proc: s.node, Index: uint32(s.lo + i)}
}

func (s *keySource[K]) emit(buf []comm.Entry[K], order []lsort.NormRef) []comm.Entry[K] {
	buf = buf[:len(order)]
	for j, r := range order {
		buf[j] = s.entry(int(r.Idx))
	}
	return buf
}

// recSource yields one node's key+payload records; the staged chunk is
// recs[lo:hi].
type recSource[K cmp.Ordered] struct {
	recs   []comm.Record[K]
	node   uint32
	lo, hi int
}

func (s *recSource[K]) size() int { return len(s.recs) }

func (s *recSource[K]) next(max int) (int, error) {
	s.lo, s.hi = s.hi, min(s.hi+max, len(s.recs))
	return s.hi - s.lo, nil
}

func (s *recSource[K]) refs(dst []lsort.NormRef, norm func(K) uint64) {
	for i := range s.recs[s.lo:s.hi] {
		dst[i] = lsort.NormRef{Norm: norm(s.recs[s.lo+i].Key), Idx: uint32(i)}
	}
}

func (s *recSource[K]) less(i, j uint32) bool {
	return s.recs[s.lo+int(i)].Key < s.recs[s.lo+int(j)].Key
}

// entry is the chunk's i-th entry.
func (s *recSource[K]) entry(i int) comm.Entry[K] {
	rec := &s.recs[s.lo+i]
	return comm.Entry[K]{Key: rec.Key, Payload: rec.Payload, Proc: s.node, Index: uint32(s.lo + i)}
}

func (s *recSource[K]) emit(buf []comm.Entry[K], order []lsort.NormRef) []comm.Entry[K] {
	buf = buf[:len(order)]
	for j, r := range order {
		buf[j] = s.entry(int(r.Idx))
	}
	return buf
}

// sectionSource yields one node's contiguous section of an upload spool
// (see formSection). A chunk read back from disk has to sit somewhere to
// be addressed by position, so this source stages it in a slab of its
// own: staged[:n] is the chunk, provenance already stamped.
type sectionSource[K cmp.Ordered] struct {
	sec      *spill.RunReader[K]
	node     uint32
	seq      uint32          // entries staged so far: the next entry's Index
	staged   []comm.Entry[K] // staging slab, one chunk long
	n        int             // length of the staged chunk
	pending  []comm.Entry[K] // unconsumed tail of the reader's live batch
	readSite string          // SpooledInput.ReadSite
}

func (s *sectionSource[K]) size() int { return int(s.sec.Count()) }

func (s *sectionSource[K]) next(max int) (int, error) {
	dst := s.staged[:min(max, len(s.staged))]
	s.n = 0
	for s.n < len(dst) {
		if len(s.pending) == 0 {
			if s.readSite != "" {
				if err := failpoint.HitNoPanic(s.readSite); err != nil {
					return 0, err
				}
			}
			var err error
			if s.pending, err = s.sec.Next(); err != nil {
				return 0, err
			}
			if len(s.pending) == 0 {
				break
			}
		}
		n := copy(dst[s.n:], s.pending)
		// Restamp provenance: the spool holds arrival order from one
		// ingress stream, but the sorted output's tie-break provenance
		// is (section, position-in-section), matching the resident
		// path's (node, index).
		for j := s.n; j < s.n+n; j++ {
			dst[j].Proc = s.node
			dst[j].Index = s.seq
			s.seq++
		}
		s.n += n
		s.pending = s.pending[n:]
	}
	return s.n, nil
}

func (s *sectionSource[K]) refs(dst []lsort.NormRef, norm func(K) uint64) {
	for i := range s.staged[:s.n] {
		dst[i] = lsort.NormRef{Norm: norm(s.staged[i].Key), Idx: uint32(i)}
	}
}

func (s *sectionSource[K]) less(i, j uint32) bool { return s.staged[i].Key < s.staged[j].Key }

// emit permutes the staging in place, following each cycle of order
// once: every entry moves straight to its sorted position and no second
// entry slab is needed. A position is marked done by pointing its ref at
// itself.
func (s *sectionSource[K]) emit(_ []comm.Entry[K], order []lsort.NormRef) []comm.Entry[K] {
	chunk := s.staged[:len(order)]
	for j := range order {
		if order[j].Idx == uint32(j) {
			continue
		}
		first := chunk[j]
		k := j
		for {
			from := int(order[k].Idx)
			order[k].Idx = uint32(k)
			if from == j {
				chunk[k] = first
				break
			}
			chunk[k] = chunk[from]
			k = from
		}
	}
	return chunk
}

// runFormer forms and reopens sorted runs for one consumer: a node of the
// resident pipeline (sortRun), or a whole spooled job, whose p section
// goroutines share one former — hence the atomic counters.
type runFormer[K cmp.Ordered] struct {
	ctx     context.Context
	codec   comm.Codec[K]
	cmps    sortCmps[K]
	workers int
	// pool, refPool, provPool and tracker supply and account every slab
	// the former takes: staging, refs, provenance words, merge batches and
	// the readers' decoded blocks.
	pool     *alloc.SlabPool[comm.Entry[K]]
	refPool  *alloc.SlabPool[lsort.NormRef]
	provPool *alloc.SlabPool[uint64]
	tracker  *alloc.Tracker
	// Spilled runs are blocks of a scratch file, one file per spilling
	// stage: whoever needs the stage's runs on disk creates it, hands it
	// to form or writeRun, and closes it once the runs are consumed.
	blockBytes int // spilled block size; 0 is the spill tier's default

	// Bytes written to and read back from scratch files (and read from the
	// spool): the Report's SpillBytes and SpillReads.
	spillBytes atomic.Int64
	spillReads atomic.Int64
}

func (f *runFormer[K]) readerOpts() spill.ReaderOpts[K] {
	return spill.ReaderOpts[K]{Pool: f.pool, RefPool: f.refPool, Tracker: f.tracker, EntryBytes: int64(entryBytes[K]())}
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

// take, takeRefs and takeProv hand out entry, ref and provenance slabs;
// give, giveRefs and giveProv return them.
func (f *runFormer[K]) take(n int) []comm.Entry[K]     { return takeSlab(f.tracker, f.pool, n) }
func (f *runFormer[K]) give(slab []comm.Entry[K])      { giveSlab(f.tracker, f.pool, slab) }
func (f *runFormer[K]) takeRefs(n int) []lsort.NormRef { return takeSlab(f.tracker, f.refPool, n) }
func (f *runFormer[K]) giveRefs(slab []lsort.NormRef)  { giveSlab(f.tracker, f.refPool, slab) }
func (f *runFormer[K]) takeProv(n int) []uint64        { return takeSlab(f.tracker, f.provPool, n) }
func (f *runFormer[K]) giveProv(slab []uint64)         { giveSlab(f.tracker, f.provPool, slab) }

// refBytes is the in-memory size of one lsort.NormRef.
const refBytes = int64(unsafe.Sizeof(lsort.NormRef{}))

// chunkEntries sizes a step-1 chunk under budget: half the budget for
// the chunk, half for what sorting it takes (the refs need less: 32 B an
// entry), at least floor entries so tiny budgets still make progress.
func chunkEntries(budget, eb int64, floor int) int {
	return max(int(budget/(2*eb)), floor)
}

// form is step 1 for one source. It pulls the source one chunk (at most
// chunk entries) at a time and sorts each; given a scratch file every
// sorted chunk is written to it as a run and the runs come back in chunk
// order, without one the source must fit one chunk, which stays in buf.
// buf, a chunk long, is where a source that does not stage its own entries
// has them land; one that does needs none. Chunk sorts are stable, an
// inexact norm's included (its equal-norm runs are finished under the real
// keys), and the merge breaks equal keys by run, so merging the runs in
// order reproduces the one-chunk sort entry for entry at any chunk size.
func (f *runFormer[K]) form(src entrySource[K], buf []comm.Entry[K], chunk int, to *spill.Scratch) (runs []spill.Run, err error) {
	chunk = min(chunk, src.size())
	refs := f.takeRefs(2 * chunk) // the chunk's refs, then as many of scratch
	defer f.giveRefs(refs)
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		n, err := src.next(chunk)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return runs, nil
		}
		sorted := f.sortChunk(src, n, buf, refs)
		if to == nil {
			return nil, nil
		}
		run, err := f.writeRun(to, sorted, nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		if n < chunk {
			return runs, nil
		}
	}
}

// formSection is step 1 for one node of a spooled job: entries
// [lo, lo+n) of the spool become sorted runs of at most chunk entries in
// the scratch file the job's sections share. Nothing stays resident — the
// staging chunk is the former's own, tracker-accounted like its refs; the
// two (40 + 32 B an entry) stay under the two entry slabs the budget's
// chunk size was derived from.
func (f *runFormer[K]) formSection(in SpooledInput, node int, lo, n uint64, chunk int, to *spill.Scratch) ([]spill.Run, error) {
	sec, err := spill.NewRunReaderSection(in.Path, f.codec, f.readerOpts(), lo, n)
	if err != nil {
		return nil, err
	}
	defer func() {
		f.spillReads.Add(sec.BytesRead())
		sec.Close()
	}()
	src := &sectionSource[K]{sec: sec, node: uint32(node), readSite: in.ReadSite}
	if err := checkShare[K](src); err != nil {
		return nil, err
	}
	chunk = min(chunk, src.size())
	src.staged = f.take(chunk)
	defer f.give(src.staged)
	return f.form(src, nil, chunk, to)
}

// sortChunk is the step-1 kernel: it returns the source's staged chunk of
// n entries, sorted.
//
// It never moves an entry to sort it: it builds one (norm, position) ref
// per key, sorts the refs — a radix over the bits that tell them apart per
// worker chunk, combined by the balanced handler — and has the source put
// each entry in its place once, in the refs' order. The ref sort is stable
// and the refs start in position order, so equal keys come out in
// provenance order exactly as if the entries themselves had been stably
// sorted. An inexact norm leaves its equal-norm runs for the real keys
// first.
func (f *runFormer[K]) sortChunk(src entrySource[K], n int, buf []comm.Entry[K], refs []lsort.NormRef) []comm.Entry[K] {
	src.refs(refs[:n], f.cmps.norm)
	order := lsort.SortNormRefs(refs[:n], refs[len(refs)/2:], f.workers)
	if f.cmps.inexact {
		lsort.SortEqualNormRefs(order, src.less)
	}
	return src.emit(buf, order)
}

// sortRefs is step 1 of a sort by ref: the refs standing for the n keys
// of node's source, sorted — the share, in a slab of the ref pool that is
// resident until the sort joins. A share of one chunk (to nil) is
// sortChunk stopping at the sorted refs: it sorts in that slab and a
// scratch one, both temporary memory while it does. A larger one is
// formed into runs (formRefs), which are read back as refs and merged
// into the share by the stable cursor merge that takes form's runs back,
// so the share is the one-chunk sort's, ref for ref. Like the entry
// path's buffer, that share only receives the merge: it is resident from
// the start. Every other slab goes back, and on an error or a panic the
// share does too.
func (f *runFormer[K]) sortRefs(src entrySource[K], n, chunk int, node uint32, to *spill.Scratch) ([]lsort.NormRef, error) {
	if to == nil {
		if _, err := src.next(n); err != nil {
			return nil, err
		}
		refs, scratch := f.takeRefs(n), f.takeRefs(n)
		sorted := false
		defer func() {
			f.giveRefs(scratch)
			if !sorted {
				f.giveRefs(refs)
			}
		}()
		src.refs(refs, f.cmps.norm)
		if order := lsort.SortNormRefs(refs, scratch, f.workers); n > 0 && &order[0] == &scratch[0] {
			refs, scratch = scratch, refs
		}
		f.tracker.Free(int64(n) * refBytes)
		sorted = true
		return refs, nil
	}

	share, merged := f.refPool.Get(n), false
	defer func() {
		if !merged {
			f.refPool.Put(share)
		}
	}()
	runs, err := f.formRefs(src, n, chunk, node, to)
	if err == nil {
		err = f.mergeRefsInto(share, runs, node)
	}
	if err != nil {
		return nil, err
	}
	merged = true
	return share, nil
}

// formRefs is form for a sort by ref: the source a chunk at a time, each
// chunk's refs sorted in a slab of 2·chunk refs and written to the
// scratch file as one run whose bytes are the key-only entries they stand
// for. The slab goes back before the runs are merged, as form's does.
func (f *runFormer[K]) formRefs(src entrySource[K], n, chunk int, node uint32, to *spill.Scratch) ([]spill.Run, error) {
	refs := f.takeRefs(2 * chunk) // a chunk's refs, then as many of scratch
	defer f.giveRefs(refs)
	runs := make([]spill.Run, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		m, err := src.next(chunk)
		if err != nil {
			return nil, err
		}
		src.refs(refs[:m], f.cmps.norm)
		order := lsort.SortNormRefs(refs[:m], refs[chunk:], f.workers)
		for i := range order {
			order[i].Idx += uint32(lo) // a chunk position becomes a share index
		}
		run, err := f.writeRefRun(to, order, node)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// writeRefRun writes sorted refs sent by node to the scratch file as one
// run of the key-only entries they stand for.
func (f *runFormer[K]) writeRefRun(to *spill.Scratch, refs []lsort.NormRef, node uint32) (spill.Run, error) {
	w := spill.NewRunWriter(to, f.codec, f.blockBytes)
	defer w.Abort() // lets go of the block buffer on a panic; nothing after Finish
	return f.seal(w, w.AppendRefs(refs, node))
}

// writeRun writes a sorted stream — chunk, then whatever more yields (nil
// for nothing more) — to the scratch file as one run.
func (f *runFormer[K]) writeRun(to *spill.Scratch, chunk []comm.Entry[K], more lsort.Cursor[comm.Entry[K]]) (spill.Run, error) {
	w := spill.NewRunWriter(to, f.codec, f.blockBytes)
	defer w.Abort() // lets go of the block buffer on a panic; nothing after Finish
	for {
		if err := w.Append(chunk); err != nil || more == nil {
			return f.seal(w, err)
		}
		var err error
		if chunk, err = more.Next(); err == nil {
			err = f.ctx.Err()
		}
		if err != nil || len(chunk) == 0 {
			return f.seal(w, err)
		}
	}
}

// seal finishes a run whose appends returned err and hands it over. A
// failed or cancelled run lets go of its block buffer and costs the
// scratch some dead bytes and nothing else.
func (f *runFormer[K]) seal(w *spill.Writer[K], err error) (spill.Run, error) {
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

// openRuns opens runs as merge cursors through open, one per run in
// order; an empty run gets an empty cursor, so cursor index — the merge's
// tie-break — stays the caller's run index. Nothing is read yet, so
// nothing can fail. The returned func folds the bytes read into
// spillReads and closes the readers; the runs' scratch file is the
// caller's to give back after it.
func openRuns[K cmp.Ordered, E any](f *runFormer[K], runs []spill.Run, open func(spill.Run) runReader[E]) ([]lsort.Cursor[E], func()) {
	cursors := make([]lsort.Cursor[E], len(runs))
	for i, run := range runs {
		if run.Entries() == 0 {
			cursors[i] = lsort.NewSliceCursor[E](nil)
			continue
		}
		cursors[i] = open(run)
	}
	return cursors, func() {
		for _, c := range cursors {
			if r, ok := c.(runReader[E]); ok {
				f.spillReads.Add(r.BytesRead())
				r.Close()
			}
		}
	}
}

// open opens runs as cursors of entries (openRuns).
func (f *runFormer[K]) open(runs []spill.Run) ([]lsort.Cursor[comm.Entry[K]], func()) {
	opts := f.readerOpts()
	return openRuns(f, runs, func(run spill.Run) runReader[comm.Entry[K]] {
		return spill.OpenRun(run, f.codec, opts)
	})
}

// takeMergeRefs takes the ref slab a merge of k run cursors under
// headNorm and headLess asks for (lsort.MergeRefs decides, by the same
// headLess the merge is handed): one for the rounds, nil for the loser
// tree, which giveRefs takes back like any slab.
func (f *runFormer[K]) takeMergeRefs(k int) []lsort.NormRef {
	return f.takeRefs(lsort.MergeRefs(k, f.cmps.headLess == nil))
}

// mergeInto streams the runs back into dst, which they must fill
// exactly. The merge is stable and takes the runs in order. Decoded
// batches are fresh slabs, so dst may be the buffer the runs were staged
// in.
func (f *runFormer[K]) mergeInto(dst []comm.Entry[K], runs []spill.Run) error {
	cursors, done := f.open(runs)
	defer done() // on a panic too: no reader outlives the merge into a reused file
	refs := f.takeMergeRefs(len(cursors))
	defer func() { f.giveRefs(refs) }()
	return mergeFilling(dst, cursors, f.cmps.headNorm, f.cmps.headLess, refs)
}

// mergeRefsInto is mergeInto for runs of node's key-only entries read as
// the refs standing for them: an exact norm, so the rounds up to
// lsort's round fan-in and the loser tree above it, ties by run.
func (f *runFormer[K]) mergeRefsInto(dst []lsort.NormRef, runs []spill.Run, node uint32) error {
	opts := f.readerOpts()
	cursors, done := openRuns(f, runs, func(run spill.Run) runReader[lsort.NormRef] {
		return spill.OpenRefRun(run, node, f.codec, opts)
	})
	defer done()
	refs := f.takeRefs(lsort.MergeRefs(len(cursors), true))
	defer func() { f.giveRefs(refs) }()
	return mergeFilling(dst, cursors, refNorm, nil, refs)
}

// refNorm is a ref's norm, read in place.
func refNorm(r *lsort.NormRef) uint64 { return r.Norm }

// mergeFilling merges cursors into dst (lsort.MergeCursorsNorm), which
// they must fill exactly: runs that hold fewer elements than their block
// lists promised are corrupt.
func mergeFilling[E any](dst []E, cursors []lsort.Cursor[E], norm func(*E) uint64, less func(a, b E) bool, refs []lsort.NormRef) error {
	filled, err := lsort.MergeCursorsNorm(dst, cursors, norm, less, refs)
	if err == nil && filled != len(dst) {
		err = fmt.Errorf("core: spill merge produced %d of %d entries: %w",
			filled, len(dst), spill.ErrCorrupt)
	}
	return err
}

// stream merges the runs into one sorted stream of batches of up to
// batchLen entries. The returned func releases the batch and the merge's
// refs and closes the runs' readers.
func (f *runFormer[K]) stream(runs []spill.Run, batchLen int) (lsort.Cursor[comm.Entry[K]], func(), error) {
	cursors, closeRuns := f.open(runs)
	batch, refs := f.take(batchLen), f.takeMergeRefs(len(cursors))
	done := func() {
		f.give(batch)
		f.giveRefs(refs)
		closeRuns()
	}
	mc, err := lsort.NewMergeCursor(cursors, f.cmps.headNorm, f.cmps.headLess, batch, refs)
	if err != nil {
		done()
		return nil, nil, err
	}
	return mc, done, nil
}
