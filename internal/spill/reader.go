package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"unsafe"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/failpoint"
)

// ReaderOpts configures how a reader allocates decoded batches.
type ReaderOpts[K any] struct {
	// Pool supplies the slab behind each batch of entries a RunReader
	// decodes, RefPool each batch of refs a RefReader decodes; nil
	// allocates plainly. Recycled slabs are the block cache: a reader holds
	// one slab, the batch Next last handed out, so with a pool shared
	// across readers at most one slab a reader circulates, however long
	// the runs are. A batch of records holds its block's payloads: a Pool
	// that outlives the reader sets Clear, or its idle slabs keep them.
	Pool    *alloc.SlabPool[comm.Entry[K]]
	RefPool *alloc.SlabPool[comm.NormRef]
	// Tracker, when set, accounts decoded-batch bytes as Alloc on decode
	// and Free on recycle — EntryBytes an entry, a ref's in-memory size a
	// ref — so slab-balance tests can assert Live()==0 after Close.
	Tracker    *alloc.Tracker
	EntryBytes int64
}

// reader is the one block reader behind RunReader and RefReader: a
// descriptor, a block list and a decoder for the blocks. Next reads the
// next block with one ReadAt into a pooled buffer, checks its CRC32-C and
// decodes it into a slab of E from the pool; the buffer goes back before
// Next returns and the slab on the following Next or Close. Nothing runs
// behind the consumer's back: a reader is a struct, and a merge over k
// runs holds k slabs and no buffer between calls.
type reader[K, E any] struct {
	f       *os.File
	owned   bool        // f is this reader's to close
	index   []blockMeta // the run's blocks
	total   uint64      // elements the cursor yields
	scratch *Scratch    // a scratch run's file, marked failed if a block fails to read or check

	dec       decoder[K, E]
	codec     comm.Codec[K]
	src       uint32
	pool      *alloc.SlabPool[E]
	tracker   *alloc.Tracker
	elemBytes int64

	next int // the block the following Next reads
	prev []E // batch handed out by the last Next
	done bool

	bytesRead atomic.Int64
}

// RunReader streams one spilled run back as entries, an lsort.Cursor
// yielding one decoded block per Next. A reader is a descriptor and a
// block list; a run file's reader opened both itself (NewRunReader), a
// scratch run's borrows them from the Scratch and the Run (OpenRun).
type RunReader[K any] struct{ reader[K, comm.Entry[K]] }

// RefReader streams a scratch run of refs back (OpenRefRun), one decoded
// block per Next.
type RefReader[K any] struct{ reader[K, comm.NormRef] }

// NewRunReader opens a finished run file and validates its structure:
// magics, version, trailer placement, index checksum, that every block
// is stored raw, and that block offsets tile [header, indexOff) exactly
// in order. Any mismatch is ErrCorrupt. No block is read until Next.
func NewRunReader[K any](path string, c comm.Codec[K], opts ReaderOpts[K]) (*RunReader[K], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: open run file: %w", err)
	}
	r := newRunReader(f, c, opts)
	r.owned = true
	buf := getBuf(tailGuess)
	err = r.loadIndex(buf)
	bufPool.Put(buf)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// OpenRun opens a sealed scratch run as a cursor of entries. The block
// list is the writer's, handed over in memory, so there is nothing to
// read or check here and nothing that can fail; each block is still
// checksummed as it is fetched. The reader must be closed before the
// run's Scratch is closed or given back.
func OpenRun[K any](run Run, c comm.Codec[K], opts ReaderOpts[K]) *RunReader[K] {
	r := newRunReader(run.file.file(), c, opts)
	r.index, r.total, r.scratch = run.blocks, run.entries, run.file
	return r
}

// OpenRefRun opens a sealed scratch run of refs from node src, written
// by Writer.AppendRefs, as a cursor of those refs: each block decodes
// straight into a slab of opts.RefPool, and a ref from another origin is
// ErrCorrupt. Otherwise it is OpenRun.
func OpenRefRun[K any](run Run, src uint32, opts ReaderOpts[K]) *RefReader[K] {
	return &RefReader[K]{reader[K, comm.NormRef]{
		f: run.file.file(), index: run.blocks, total: run.entries, scratch: run.file,
		dec: refDecoder[K]{}, src: src,
		pool: opts.RefPool, tracker: opts.Tracker, elemBytes: int64(unsafe.Sizeof(comm.NormRef{})),
	}}
}

// newRunReader is a reader of entries from f, its block list still to
// set.
func newRunReader[K any](f *os.File, c comm.Codec[K], opts ReaderOpts[K]) *RunReader[K] {
	return &RunReader[K]{reader[K, comm.Entry[K]]{
		f: f, dec: entryDecoder[K]{}, codec: c,
		pool: opts.Pool, tracker: opts.Tracker, elemBytes: opts.EntryBytes,
	}}
}

// decoder parses n elements — from node src, for a ref — out of a
// verified block into a slab of pool and returns the bytes after them.
// Its implementations are zero-size types, so a reader holding one costs
// no allocation, where a func field naming a generic function would cost
// one a reader.
type decoder[K, E any] interface {
	decode(b []byte, n int, src uint32, c comm.Codec[K], pool *alloc.SlabPool[E]) ([]E, []byte, error)
}

// entryDecoder decodes entries, which carry their origin: src is unused.
type entryDecoder[K any] struct{}

func (entryDecoder[K]) decode(b []byte, n int, _ uint32, c comm.Codec[K], pool *alloc.SlabPool[comm.Entry[K]]) ([]comm.Entry[K], []byte, error) {
	return comm.DecodeEntriesSlab(b, n, c, pool)
}

// refDecoder decodes refs from node src, which need no codec.
type refDecoder[K any] struct{}

func (refDecoder[K]) decode(b []byte, n int, src uint32, _ comm.Codec[K], pool *alloc.SlabPool[comm.NormRef]) ([]comm.NormRef, []byte, error) {
	return comm.DecodeRefsSlab(b, n, src, pool)
}

// tailGuess is how much of the file's end loadIndex reads first: the
// trailer plus the index of a run of up to 145 blocks, so all but the
// largest runs open in two reads (header, tail).
const tailGuess = 4 << 10

// loadIndex reads and validates header, trailer and index.
func (r *reader[K, E]) loadIndex(buf *blockBuf) error {
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

// Next implements lsort.Cursor: it recycles the previously returned
// batch and hands out the next block, read, checked and decoded; a
// zero-length batch means the run is exhausted, and so does every call
// after an error. The returned slice is only valid until the next Next
// or Close.
func (r *reader[K, E]) Next() ([]E, error) {
	r.recycle(r.prev)
	r.prev = nil
	if r.done || r.next == len(r.index) {
		r.done = true
		return nil, nil
	}
	batch, err := r.readBlock(&r.index[r.next])
	if err != nil {
		r.done = true
		return nil, err
	}
	r.next++
	r.prev = batch
	return batch, nil
}

// readBlock fetches one block into a pooled buffer, verifies and decodes
// it. Decoded elements never alias the buffer (keys and payloads are
// copied out), so it goes back to the pool before this returns. A block
// that cannot be read, or whose bytes are not what was written — the file
// ending inside it included — marks a scratch file failed: its pool
// closes it instead of handing it out.
func (r *reader[K, E]) readBlock(m *blockMeta) ([]E, error) {
	if err := failpoint.HitNoPanic(FpReadBlock); err != nil {
		return nil, err
	}
	buf := getBuf(int(m.storedLen))
	defer bufPool.Put(buf)
	data := buf.sized(int(m.storedLen))
	if _, err := r.f.ReadAt(data, int64(m.offset)); err != nil {
		r.scratch.fail()
		if errors.Is(err, io.EOF) {
			return nil, corruptf("block at %d: the file ends inside its %d bytes", m.offset, m.storedLen)
		}
		return nil, fmt.Errorf("spill: read block: %w", err)
	}
	r.bytesRead.Add(int64(m.storedLen))
	if got := crc32.Checksum(data, castagnoli); got != m.crc {
		r.scratch.fail()
		return nil, corruptf("block at %d: checksum %08x, want %08x", m.offset, got, m.crc)
	}
	batch, rest, err := r.dec.decode(data, int(m.count), r.src, r.codec, r.pool)
	if err == nil && len(rest) != 0 {
		r.pool.Put(batch) // not yet on the tracker's books
		err = fmt.Errorf("%d trailing bytes after %d entries", len(rest), m.count)
	}
	if err != nil {
		r.scratch.fail()
		return nil, corruptf("block at %d: %v", m.offset, err)
	}
	r.tracker.Alloc(int64(len(batch)) * r.elemBytes)
	return batch, nil
}

// recycle returns a decoded batch's slab and settles its accounting.
func (r *reader[K, E]) recycle(batch []E) {
	if batch == nil {
		return
	}
	r.tracker.Free(int64(len(batch)) * r.elemBytes)
	r.pool.Put(batch)
}

// Count reports the total elements the cursor yields.
func (r *reader[K, E]) Count() uint64 { return r.total }

// BytesRead reports stored block bytes fetched so far — the reader-side
// half of the Report's SpillReads column. Safe to call concurrently.
func (r *reader[K, E]) BytesRead() int64 { return r.bytesRead.Load() }

// Close recycles the outstanding batch and closes the file if the reader
// opened it. Safe after errors and safe to call once Next has drained the
// run.
func (r *reader[K, E]) Close() error {
	r.recycle(r.prev)
	r.prev = nil
	r.done = true
	if r.owned {
		r.owned = false
		return r.f.Close()
	}
	return nil
}
