package core

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

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
// wherever the sorted runs end up (the node's entry buffer, run files
// under a scratch directory). Where a run lives is a property of the run;
// the merge side already treats it that way through lsort.Cursor, and the
// former is the same idea on the formation side.

// entrySource is one node's step-1 input: the former pulls it a chunk at
// a time as provenance-stamped entries (origin node, index within the
// node's share), so the rest of the pipeline never sees what the input
// was.
type entrySource[K cmp.Ordered] interface {
	// size is how many entries the source yields in total.
	size() int
	// fill stamps the next entries into dst and returns how many; fewer
	// than len(dst) means the source is exhausted.
	fill(dst []comm.Entry[K]) (int, error)
}

// keySource yields one node's bare keys.
type keySource[K cmp.Ordered] struct {
	keys []K
	node uint32
	pos  int
}

func (s *keySource[K]) size() int { return len(s.keys) }

func (s *keySource[K]) fill(dst []comm.Entry[K]) (int, error) {
	n := min(len(dst), len(s.keys)-s.pos)
	for i, k := range s.keys[s.pos : s.pos+n] {
		dst[i] = comm.Entry[K]{Key: k, Proc: s.node, Index: uint32(s.pos + i)}
	}
	s.pos += n
	return n, nil
}

// recSource yields one node's key+payload records.
type recSource[K cmp.Ordered] struct {
	recs []comm.Record[K]
	node uint32
	pos  int
}

func (s *recSource[K]) size() int { return len(s.recs) }

func (s *recSource[K]) fill(dst []comm.Entry[K]) (int, error) {
	n := min(len(dst), len(s.recs)-s.pos)
	for i, r := range s.recs[s.pos : s.pos+n] {
		dst[i] = comm.Entry[K]{Key: r.Key, Payload: r.Payload, Proc: s.node, Index: uint32(s.pos + i)}
	}
	s.pos += n
	return n, nil
}

// sectionSource yields one node's contiguous section of an upload spool
// (see formSection).
type sectionSource[K cmp.Ordered] struct {
	sec      *spill.RunReader[K]
	node     uint32
	seq      uint32
	pending  []comm.Entry[K] // unconsumed tail of the reader's live batch
	readSite string          // SpooledInput.ReadSite
}

func (s *sectionSource[K]) size() int { return int(s.sec.Count()) }

func (s *sectionSource[K]) fill(dst []comm.Entry[K]) (int, error) {
	filled := 0
	for filled < len(dst) {
		if len(s.pending) == 0 {
			if s.readSite != "" {
				if err := failpoint.HitNoPanic(s.readSite); err != nil {
					return filled, err
				}
			}
			var err error
			if s.pending, err = s.sec.Next(); err != nil {
				return filled, err
			}
			if len(s.pending) == 0 {
				break
			}
		}
		n := copy(dst[filled:], s.pending)
		// Restamp provenance: the spool holds arrival order from one
		// ingress stream, but the sorted output's tie-break provenance
		// is (section, position-in-section), matching the resident
		// path's (node, index).
		for j := filled; j < filled+n; j++ {
			dst[j].Proc = s.node
			dst[j].Index = s.seq
			s.seq++
		}
		filled += n
		s.pending = s.pending[n:]
	}
	return filled, nil
}

// runFormer forms and reopens sorted runs for one consumer: a node of the
// resident pipeline (sortRun), or a whole spooled job, whose p section
// goroutines share one former — hence the atomic counters.
type runFormer[K cmp.Ordered] struct {
	ctx     context.Context
	codec   comm.Codec[K]
	cmps    sortCmps[K]
	workers int
	// pool and tracker supply and account every slab the former takes:
	// sort scratch, merge batches and the readers' decoded blocks.
	pool    *alloc.SlabPool[comm.Entry[K]]
	tracker *alloc.Tracker
	// Run files live in a private directory created under spillDir (the
	// system temp dir when empty) from dirPattern the first time one is
	// needed; removeScratch deletes it and everything left inside.
	spillDir   string
	dirPattern string
	dir        string
	blockBytes int // run-file block size; 0 is the spill tier's default

	// Bytes written to and read back from run files: the Report's
	// SpillBytes and SpillReads.
	spillBytes atomic.Int64
	spillReads atomic.Int64
}

func (f *runFormer[K]) readerOpts() spill.ReaderOpts[K] {
	return spill.ReaderOpts[K]{Pool: f.pool, Tracker: f.tracker, EntryBytes: int64(entryBytes[K]())}
}

// take hands out an n-entry slab accounted as temporary memory; give
// returns it.
func (f *runFormer[K]) take(n int) []comm.Entry[K] {
	f.tracker.Alloc(int64(n) * int64(entryBytes[K]()))
	return f.pool.Get(n)
}

func (f *runFormer[K]) give(slab []comm.Entry[K]) {
	f.tracker.Free(int64(len(slab)) * int64(entryBytes[K]()))
	f.pool.Put(slab)
}

// scratchDir returns the former's run-file directory, creating it on
// first use. Not safe for concurrent first use.
func (f *runFormer[K]) scratchDir() (string, error) {
	if f.dir == "" {
		dir, err := os.MkdirTemp(f.spillDir, f.dirPattern)
		if err != nil {
			return "", fmt.Errorf("core: create spill dir: %w", err)
		}
		f.dir = dir
	}
	return f.dir, nil
}

func (f *runFormer[K]) removeScratch() error {
	if f.dir == "" {
		return nil
	}
	dir := f.dir
	f.dir = ""
	return os.RemoveAll(dir)
}

// chunkEntries sizes a step-1 chunk under budget: half the budget for
// the chunk, half for the sort scratch, at least floor entries so tiny
// budgets still make progress.
func chunkEntries(budget, eb int64, floor int) int {
	return max(int(budget/(2*eb)), floor)
}

// form is step 1 for one source. It stages the source in buf one chunk
// (len(buf) entries) at a time and sorts each chunk; with toRuns every
// sorted chunk is written out as the run file <name>-<i>.spill and the
// paths come back in chunk order, otherwise the source must fit buf and
// its one sorted chunk stays there. Chunk sorts are stable on the radix
// path, so merging the runs in order reproduces the one-chunk sort entry
// for entry at any chunk size.
func (f *runFormer[K]) form(src entrySource[K], buf []comm.Entry[K], name string, toRuns bool) (runs []string, err error) {
	var scratch []comm.Entry[K]
	if n := min(len(buf), src.size()); n > 1 && (f.cmps.useRadix || f.workers > 1) {
		scratch = f.take(n)
		defer f.give(scratch)
	}
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, err
		}
		n, err := src.fill(buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return runs, nil
		}
		f.sortChunk(buf[:n], scratch)
		if !toRuns {
			return nil, nil
		}
		path, err := f.writeRun(fmt.Sprintf("%s-%d.spill", name, len(runs)), buf[:n], nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, path)
		if n < len(buf) {
			return runs, nil
		}
	}
}

// formSection is step 1 for one node of a spooled job: entries
// [lo, lo+n) of the spool become sorted runs of at most chunk entries.
// Nothing stays resident — the staging chunk is the former's own,
// tracker-accounted like its scratch.
func (f *runFormer[K]) formSection(in SpooledInput, node int, lo, n uint64, chunk int) ([]string, error) {
	sec, err := spill.NewRunReaderSection(in.Path, f.codec, f.readerOpts(), lo, n)
	if err != nil {
		return nil, err
	}
	defer func() {
		f.spillReads.Add(sec.BytesRead())
		sec.Close()
	}()
	src := &sectionSource[K]{sec: sec, node: uint32(node), readSite: in.ReadSite}
	buf := f.take(min(chunk, src.size()))
	defer f.give(buf)
	return f.form(src, buf, fmt.Sprintf("run-%d", node), true)
}

// sortChunk is the step-1 kernel. The comparison path is the paper's
// chunked quicksort + balanced merge; the radix path (taken when the key
// normalizes to uint64, see Options.LocalSort) replaces the per-chunk
// quicksort with an LSD byte-radix sort over normalized keys. scratch
// must cover chunk unless the path is single-worker comparison.
func (f *runFormer[K]) sortChunk(chunk, scratch []comm.Entry[K]) {
	if len(chunk) < 2 {
		return
	}
	switch {
	case f.cmps.useRadix:
		lsort.ParallelRadixSort(chunk, scratch[:len(chunk)], f.cmps.entryNorm, f.cmps.normBits, f.cmps.entryLess, f.workers)
		if f.cmps.fallback {
			// Inexact norm: the radix passes ordered by norm only;
			// finish the equal-norm runs under the real comparison.
			lsort.SortEqualNormRuns(chunk, f.cmps.entryNorm, f.cmps.entryLess)
		}
	case f.workers > 1:
		lsort.ParallelSortScratch(chunk, scratch[:len(chunk)], f.cmps.entryLess, f.workers)
	default:
		lsort.Quicksort(chunk, f.cmps.entryLess)
	}
}

// writeRun writes a sorted stream — chunk, then whatever more yields (nil
// for nothing more) — to a new run file in the scratch directory and
// returns its path. A failed or cancelled write leaves no file behind.
func (f *runFormer[K]) writeRun(name string, chunk []comm.Entry[K], more lsort.Cursor[comm.Entry[K]]) (string, error) {
	dir, err := f.scratchDir()
	if err != nil {
		return "", err
	}
	w, err := spill.NewWriter(filepath.Join(dir, name), f.codec, f.blockBytes)
	if err != nil {
		return "", err
	}
	for {
		if err := w.Append(chunk); err != nil {
			return "", err
		}
		if more == nil {
			break
		}
		if chunk, err = more.Next(); err == nil {
			err = f.ctx.Err()
		}
		if err != nil {
			w.Abort()
			return "", err
		}
		if len(chunk) == 0 {
			break
		}
	}
	if err := w.Finish(); err != nil {
		return "", err
	}
	f.spillBytes.Add(w.BytesWritten())
	return w.Path(), nil
}

// open opens run files as merge cursors, one per path in order; an empty
// path stands for an empty run, so cursor index — the merge's tie-break —
// stays the caller's run index. The returned func folds the bytes read
// into spillReads, closes the readers and removes the files; a partial
// open unwinds the same way before the error returns.
func (f *runFormer[K]) open(paths []string) ([]lsort.Cursor[comm.Entry[K]], func() error, error) {
	cursors := make([]lsort.Cursor[comm.Entry[K]], len(paths))
	readers := make([]*spill.RunReader[K], 0, len(paths))
	done := func() error {
		var first error
		for _, r := range readers {
			f.spillReads.Add(r.BytesRead())
			if err := r.Close(); err != nil && first == nil {
				first = err
			}
		}
		for _, p := range paths {
			if p != "" {
				os.Remove(p)
			}
		}
		return first
	}
	for i, p := range paths {
		if p == "" {
			cursors[i] = lsort.NewSliceCursor[comm.Entry[K]](nil)
			continue
		}
		r, err := spill.NewRunReader(p, f.codec, f.readerOpts())
		if err != nil {
			done()
			return nil, nil, err
		}
		readers = append(readers, r)
		cursors[i] = r
	}
	return cursors, done, nil
}

// mergeInto streams the runs back into dst, which they must fill
// exactly. The merge is stable and takes the runs in order. Decoded
// batches are fresh slabs, so dst may be the buffer the runs were staged
// in.
func (f *runFormer[K]) mergeInto(dst []comm.Entry[K], paths []string) error {
	cursors, done, err := f.open(paths)
	if err != nil {
		return err
	}
	filled, err := lsort.MergeCursors(dst, cursors, f.cmps.entryLess)
	done()
	if err == nil && filled != len(dst) {
		err = fmt.Errorf("core: spill merge produced %d of %d entries: %w",
			filled, len(dst), spill.ErrCorrupt)
	}
	return err
}

// stream merges the runs into one sorted stream of batches of up to
// batchLen entries. The returned func releases the batch and the runs.
func (f *runFormer[K]) stream(paths []string, batchLen int) (lsort.Cursor[comm.Entry[K]], func() error, error) {
	cursors, closeRuns, err := f.open(paths)
	if err != nil {
		return nil, nil, err
	}
	batch := f.take(batchLen)
	done := func() error {
		f.give(batch)
		return closeRuns()
	}
	mc, err := lsort.NewMergeCursor(cursors, f.cmps.entryLess, batch)
	if err != nil {
		done()
		return nil, nil, err
	}
	return mc, done, nil
}
