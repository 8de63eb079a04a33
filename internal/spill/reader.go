package spill

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/failpoint"
)

// ReaderOpts configures how a RunReader allocates decoded batches.
type ReaderOpts[K any] struct {
	// Pool supplies the slab behind each decoded batch; nil allocates
	// plainly. Recycled slabs are the block cache: with a pool shared
	// across readers, at most readers×2 slabs (live batch + decode-ahead)
	// circulate regardless of run size.
	Pool *alloc.SlabPool[comm.Entry[K]]
	// Tracker, when set, accounts decoded-batch bytes (EntryBytes per
	// entry) as Alloc on decode and Free on recycle, so slab-balance
	// tests can assert Live()==0 after Close.
	Tracker    *alloc.Tracker
	EntryBytes int64
}

// decoded is one block's worth of entries in flight from the prefetch
// goroutine to the consumer.
type decoded[K any] struct {
	entries []comm.Entry[K]
	err     error
}

// RunReader streams one spilled run back as an lsort.Cursor: Next yields
// one decoded block per call, while a prefetch goroutine keeps exactly
// one further block decoded ahead. The previous batch's slab is recycled
// on the following Next, so a merge over k spilled runs holds at most 2k
// block slabs however large the runs are. A reader is a descriptor and a
// block list; a run file's reader opened both itself (NewRunReader), a
// scratch run's borrows them from the Scratch and the Run (OpenRun).
type RunReader[K any] struct {
	f     *os.File
	owned bool // f is this reader's to close
	codec comm.Codec[K]
	opts  ReaderOpts[K]
	index []blockMeta // the blocks overlapping the section (all, for a whole run)
	total uint64      // entries the cursor yields

	scratch *Scratch // a scratch run's file, marked failed if a read fails

	ch      chan decoded[K]
	stopped atomic.Bool     // Close is waiting for the prefetcher
	prev    []comm.Entry[K] // batch handed out by the last Next
	done    bool

	skip int // entries a section drops from its first kept block

	bytesRead atomic.Int64
}

// NewRunReader opens a finished run file and validates its structure:
// magics, version, trailer placement, index checksum, that every block
// is stored raw, and that block offsets tile [header, indexOff) exactly
// in order. Any mismatch is ErrCorrupt. On success the decode-ahead
// goroutine starts immediately.
func NewRunReader[K any](path string, c comm.Codec[K], opts ReaderOpts[K]) (*RunReader[K], error) {
	return NewRunReaderSection(path, c, opts, 0, math.MaxUint64)
}

// NewRunReaderSection opens entries [offset, offset+limit) of a finished
// run file as their own cursor. Blocks wholly outside the section are
// never read or decoded — the index's per-block counts locate the first
// and last overlapping block — so p section readers over one spooled
// input file scan p disjoint byte ranges. Bounds are clamped to the run;
// Count reports the section's entry count.
func NewRunReaderSection[K any](path string, c comm.Codec[K], opts ReaderOpts[K], offset, limit uint64) (*RunReader[K], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: open run file: %w", err)
	}
	r := &RunReader[K]{f: f, owned: true, codec: c, opts: opts}
	// One pooled buffer per open run: it loads the index here, then is
	// the prefetcher's to read blocks into and to return.
	buf := getBuf(tailGuess)
	if err := r.loadIndex(buf); err != nil {
		bufPool.Put(buf)
		f.Close()
		return nil, err
	}
	if offset > r.total {
		offset = r.total
	}
	if limit > r.total-offset {
		limit = r.total - offset
	}
	// Walk the index to the first block containing offset, then to the
	// first block past offset+limit; an empty section keeps no block, so
	// every kept block yields at least one entry.
	first, cum := 0, uint64(0)
	for first < len(r.index) && cum+uint64(r.index[first].count) <= offset {
		cum += uint64(r.index[first].count)
		first++
	}
	end, reach := first, cum
	for limit > 0 && end < len(r.index) && reach < offset+limit {
		reach += uint64(r.index[end].count)
		end++
	}
	r.index = r.index[first:end]
	r.skip = int(offset - cum)
	r.total = limit
	r.start(buf)
	return r, nil
}

// OpenRun opens a sealed scratch run as a cursor. The block list is the
// writer's, handed over in memory, so there is nothing to read or check
// here and nothing that can fail; each block is still checksummed as it
// is fetched. The reader must be closed before the run's Scratch is
// closed or given back.
func OpenRun[K any](run Run, c comm.Codec[K], opts ReaderOpts[K]) *RunReader[K] {
	r := &RunReader[K]{codec: c, opts: opts, index: run.blocks, total: run.entries, scratch: run.file}
	if run.file != nil {
		r.f = run.file.f
	}
	r.start(getBuf(0))
	return r
}

// start launches the decode-ahead goroutine, which takes over buf.
func (r *RunReader[K]) start(buf *blockBuf) {
	r.ch = make(chan decoded[K], 1)
	go r.prefetch(buf)
}

// tailGuess is how much of the file's end loadIndex reads first: the
// trailer plus the index of a run of up to 145 blocks, so all but the
// largest runs open in two reads (header, tail).
const tailGuess = 4 << 10

// loadIndex reads and validates header, trailer and index.
func (r *RunReader[K]) loadIndex(buf *blockBuf) error {
	size, err := r.f.Seek(0, io.SeekEnd) // every read below is a ReadAt
	if err != nil {
		return fmt.Errorf("spill: size run file: %w", err)
	}
	if size < headerSize+trailerSize {
		return corruptf("file %d bytes, shorter than header+trailer", size)
	}
	hdr := buf.sized(headerSize)
	if _, err := r.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("spill: read header: %w", err)
	}
	if string(hdr[:8]) != magic {
		return corruptf("bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != version {
		return corruptf("unsupported version %d", v)
	}
	tail := buf.sized(int(min(size-headerSize, tailGuess)))
	if _, err := r.f.ReadAt(tail, size-int64(len(tail))); err != nil {
		return fmt.Errorf("spill: read trailer: %w", err)
	}
	tr := tail[len(tail)-trailerSize:]
	if string(tr[24:32]) != indexMagic {
		return corruptf("bad trailer magic %q (truncated file?)", tr[24:32])
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:])
	blocks := binary.LittleEndian.Uint32(tr[8:])
	r.total = binary.LittleEndian.Uint64(tr[12:])
	wantCRC := binary.LittleEndian.Uint32(tr[20:])
	idxLen := int64(blocks) * indexEntrySize
	if indexOff < headerSize || int64(indexOff)+idxLen != size-trailerSize {
		return corruptf("index at %d (+%d) does not abut trailer in %d-byte file", indexOff, idxLen, size)
	}
	idx := tail[:len(tail)-trailerSize]
	if int64(len(idx)) >= idxLen {
		idx = idx[int64(len(idx))-idxLen:]
	} else {
		// Longer than the guess: idxLen is bounded by the file size above.
		idx = buf.sized(int(idxLen))
		if _, err := r.f.ReadAt(idx, int64(indexOff)); err != nil {
			return fmt.Errorf("spill: read index: %w", err)
		}
	}
	if got := crc32.Checksum(idx, castagnoli); got != wantCRC {
		return corruptf("index checksum %08x, want %08x", got, wantCRC)
	}
	r.index = make([]blockMeta, blocks)
	next, entries := uint64(headerSize), uint64(0)
	for i := range r.index {
		m, e := &r.index[i], idx[i*indexEntrySize:]
		m.offset = binary.LittleEndian.Uint64(e)
		m.storedLen = binary.LittleEndian.Uint32(e[8:])
		m.count = binary.LittleEndian.Uint32(e[16:])
		m.crc = binary.LittleEndian.Uint32(e[20:])
		if rawLen, flags := binary.LittleEndian.Uint32(e[12:]), binary.LittleEndian.Uint32(e[24:]); rawLen != m.storedLen || flags != 0 {
			return corruptf("block %d is not stored raw (%d stored bytes, %d raw, flags %#x)", i, m.storedLen, rawLen, flags)
		}
		if m.count == 0 {
			return corruptf("block %d holds no entries", i) // a cursor's empty batch means end of run
		}
		if m.offset != next || m.offset+uint64(m.storedLen) > indexOff {
			return corruptf("block %d at offset %d (want %d, %d stored bytes, index at %d)",
				i, m.offset, next, m.storedLen, indexOff)
		}
		next = m.offset + uint64(m.storedLen)
		entries += uint64(m.count)
	}
	if next != indexOff {
		return corruptf("blocks end at %d, index starts at %d", next, indexOff)
	}
	if entries != r.total {
		return corruptf("index counts %d entries, trailer says %d", entries, r.total)
	}
	return nil
}

// prefetch decodes blocks in order, staying exactly one decoded block
// ahead of the consumer (the channel has capacity 1). Every block is
// read into buf, which goes back to the pool the moment the last one is
// decoded or the reader stops; entry slabs come from the slab pool and
// travel to the consumer, who recycles them via Next/Close. A send never
// strands: the consumer takes it in Next, or Close does while it waits
// for the channel to close.
func (r *RunReader[K]) prefetch(buf *blockBuf) {
	defer close(r.ch)
	defer bufPool.Put(buf)
	emitted := uint64(0)
	for i := range r.index {
		if r.stopped.Load() {
			return
		}
		batch, err := r.readBlock(&r.index[i], buf)
		if err != nil {
			r.ch <- decoded[K]{err: err}
			return
		}
		// Narrow the section's first and last block to their overlap.
		lo := 0
		if i == 0 {
			lo = r.skip
		}
		hi := len(batch)
		if remain := r.total - emitted; uint64(hi-lo) > remain {
			hi = lo + int(remain)
		}
		batch = r.trimBatch(batch, lo, hi)
		emitted += uint64(len(batch))
		r.ch <- decoded[K]{entries: batch}
	}
}

// trimBatch narrows a decoded block to its section overlap. The trimmed
// entries move to a fresh slab so slab recycling and tracker accounting
// keep seeing whole allocations; at most two blocks per section (first
// and last) pay the copy.
func (r *RunReader[K]) trimBatch(batch []comm.Entry[K], lo, hi int) []comm.Entry[K] {
	if lo == 0 && hi == len(batch) {
		return batch
	}
	fresh := r.opts.Pool.Get(hi - lo)
	if fresh == nil { // nil pool, zero-length trim
		fresh = make([]comm.Entry[K], hi-lo)
	}
	copy(fresh, batch[lo:hi])
	if r.opts.Tracker != nil {
		r.opts.Tracker.Alloc(int64(len(fresh)) * r.opts.EntryBytes)
	}
	r.recycle(batch)
	return fresh
}

// readBlock fetches one block into buf, verifies and decodes it. Decoded
// entries never alias buf (keys and payloads are copied out), so the
// next block may overwrite it.
func (r *RunReader[K]) readBlock(m *blockMeta, buf *blockBuf) ([]comm.Entry[K], error) {
	if err := failpoint.HitNoPanic(FpReadBlock); err != nil {
		return nil, err
	}
	data := buf.sized(int(m.storedLen))
	if _, err := r.f.ReadAt(data, int64(m.offset)); err != nil {
		r.scratch.fail()
		return nil, fmt.Errorf("spill: read block: %w", err)
	}
	r.bytesRead.Add(int64(m.storedLen))
	if got := crc32.Checksum(data, castagnoli); got != m.crc {
		r.scratch.fail()
		return nil, corruptf("block at %d: checksum %08x, want %08x", m.offset, got, m.crc)
	}
	entries, rest, err := comm.DecodeEntriesSlab(data, int(m.count), r.codec, r.opts.Pool)
	if err != nil {
		return nil, corruptf("block at %d: %v", m.offset, err)
	}
	if len(rest) != 0 {
		r.opts.Pool.Put(entries) // not yet on the tracker's books
		return nil, corruptf("block at %d: %d trailing bytes after %d entries", m.offset, len(rest), m.count)
	}
	if r.opts.Tracker != nil {
		r.opts.Tracker.Alloc(int64(len(entries)) * r.opts.EntryBytes)
	}
	return entries, nil
}

// recycle returns a decoded batch's slab and settles its accounting.
func (r *RunReader[K]) recycle(batch []comm.Entry[K]) {
	if batch == nil {
		return
	}
	if r.opts.Tracker != nil {
		r.opts.Tracker.Free(int64(len(batch)) * r.opts.EntryBytes)
	}
	r.opts.Pool.Put(batch)
}

// Next implements lsort.Cursor: it recycles the previously returned
// batch and hands out the next decoded block; a zero-length batch means
// the run is exhausted. The returned slice is only valid until the next
// Next or Close.
func (r *RunReader[K]) Next() ([]comm.Entry[K], error) {
	r.recycle(r.prev)
	r.prev = nil
	if r.done {
		return nil, nil
	}
	d, ok := <-r.ch
	if !ok {
		r.done = true
		return nil, nil
	}
	if d.err != nil {
		r.done = true
		return nil, d.err
	}
	r.prev = d.entries
	return d.entries, nil
}

// Count reports the total entries the cursor yields.
func (r *RunReader[K]) Count() uint64 { return r.total }

// BytesRead reports stored block bytes fetched so far — the reader-side
// half of the Report's SpillReads column. Safe to call concurrently.
func (r *RunReader[K]) BytesRead() int64 { return r.bytesRead.Load() }

// Close stops the prefetch goroutine, recycles outstanding slabs and
// closes the file if the reader opened it. Safe after errors and safe to
// call once Next has drained the run.
func (r *RunReader[K]) Close() error {
	// Tell the prefetcher to stop and wait until it has: whatever it had
	// parked in the channel, or sends before it looks, goes back to the
	// pool, and the file is no longer being read when this returns.
	r.stopped.Store(true)
	for d := range r.ch {
		r.recycle(d.entries)
	}
	r.recycle(r.prev)
	r.prev = nil
	r.done = true
	if r.owned {
		r.owned = false
		return r.f.Close()
	}
	return nil
}
