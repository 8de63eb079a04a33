// Package spill implements the out-of-core run tier: sorted runs of
// entries written to append-only block files and streamed back through
// lsort.Cursor readers, so the merge path can consume runs that never
// fit in RAM exactly like resident slabs.
//
// File layout (all integers little-endian):
//
//	header:  magic "PGXSPIL1" | version u16 | flags u16 | reserved u32
//	blocks:  per block, comm.EncodeEntries output, stored as is
//	index:   per block: offset u64 | storedLen u32 | rawLen u32 |
//	         count u32 | crc32c u32 | flags u32
//	trailer: indexOff u64 | blockCount u32 | totalEntries u64 |
//	         indexCRC u32 | magic "PGXSPIX1"
//
// Blocks are stored raw: rawLen always equals storedLen and the block
// flags are zero; a reader rejects anything else as ErrCorrupt. Run
// files are scratch — written and read back by one process, removed with
// their directory — so the tier should cost what moving its bytes costs.
// Blocks used to be deflated at BestSpeed, which bought 10.9 instead of
// 16.0 file bytes per uint64 key and cost ≈ 65 % of all CPU and 63 % of
// all allocated bytes of a budgeted sort (flate ran the tier at 36–49
// MB/s written, 66–90 MB/s read, on a box that copies 9–11 GB/s); at that
// rate bytes are the bound on no device, and compression re-enters only
// where a budget shows they are.
//
// A block is the I/O unit: a writer encodes into one pooled buffer and
// hands it to the file in a single write, a reader fetches, checksums
// and decodes from one pooled buffer. Each block checksums its bytes
// with CRC32-Castagnoli, so a flipped bit surfaces as ErrCorrupt before
// any entry is decoded; the index carries its own checksum and the
// trailer is found at a fixed offset from the end, so truncation and bad
// index offsets are caught at open time. Corruption is a data problem,
// never a panic: every validation failure wraps ErrCorrupt, which the
// engine classifies FailDataDependent.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"pgxsort/internal/comm"
	"pgxsort/internal/failpoint"
)

const (
	magic      = "PGXSPIL1"
	indexMagic = "PGXSPIX1"
	version    = 1

	headerSize     = 16
	indexEntrySize = 28
	trailerSize    = 32

	// DefaultBlockBytes is the target encoded size of one block: big
	// enough to amortize syscall overhead, small enough that one decoded
	// block per active reader stays far below any sane memory budget.
	DefaultBlockBytes = 128 << 10
)

// Failpoint sites covering spill I/O, wired into the soak storm like
// every other stage. Both downgrade panics to errors (HitNoPanic): they
// fire on writer flush paths and reader prefetch goroutines where an
// unwind would leak file handles.
const (
	FpWriteBlock = "spill/write-block"
	FpReadBlock  = "spill/read-block"
)

// ErrCorrupt is the sentinel wrapped by every structural validation
// failure — bad magic, checksum mismatch, truncated file, index offsets
// out of bounds. It marks the failure as a property of the data on disk
// (FailDataDependent), not of the mesh or the run attempt.
var ErrCorrupt = errors.New("spill: corrupt run file")

var (
	errAborted  = errors.New("spill: writer aborted")
	errFinished = errors.New("spill: writer already finished")
)

// castagnoli is the CRC32-C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// blockBuf is the one byte buffer an open run file costs: a writer's
// open block, a reader's fetched block. Buffers circulate through
// bufPool, so a sort that opens dozens of run files per node allocates a
// handful. Whoever takes one returns it exactly once and drops its
// reference — a buffer returned twice is two files sharing one block.
type blockBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(blockBuf) }}

// getBuf takes an empty buffer with capacity for at least n bytes.
func getBuf(n int) *blockBuf {
	bb := bufPool.Get().(*blockBuf)
	bb.b = bb.sized(n)[:0]
	return bb
}

// sized returns the buffer's first n bytes, reallocating when it is too
// small; previous contents are not kept.
func (bb *blockBuf) sized(n int) []byte {
	if cap(bb.b) < n {
		bb.b = make([]byte, n)
	}
	return bb.b[:n]
}

// blockMeta is one index entry: where a block's bytes live and what they
// must hash to. The on-disk entry also carries rawLen and flags, fixed
// at storedLen and zero.
type blockMeta struct {
	offset    uint64
	storedLen uint32
	count     uint32
	crc       uint32
}

// Writer appends one sorted run to a block file. Entries are encoded
// immediately on Append (payloads may alias transient message slabs, so
// nothing entry-shaped is retained) into the one block buffer, which is
// checksummed and written whole once the next entry would not fit in
// BlockBytes. Callers must Append entries in run order; the file records
// order, it does not sort. Not safe for concurrent use.
type Writer[K any] struct {
	path  string
	f     *os.File
	codec comm.Codec[K]

	blockBytes int
	buf        *blockBuf // the open block; nil once the writer is done
	count      uint32    // entries in the open block

	off     uint64
	index   []blockMeta
	entries uint64
	done    error // why Append/Finish no longer work: failure, Abort or Finish
}

// NewWriter creates path (truncating any previous file) and writes the
// header. blockBytes <= 0 selects DefaultBlockBytes.
func NewWriter[K any](path string, c comm.Codec[K], blockBytes int) (*Writer[K], error) {
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("spill: create run file: %w", err)
	}
	w := &Writer[K]{
		path:       path,
		f:          f,
		codec:      c,
		blockBytes: blockBytes,
		buf:        getBuf(blockBytes),
	}
	hdr := w.buf.sized(headerSize)
	clear(hdr)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[8:], version)
	if err := w.write(hdr); err != nil {
		return nil, w.fail(fmt.Errorf("spill: write header: %w", err))
	}
	return w, nil
}

// write hands b — the block buffer's contents — to the file and empties
// the buffer.
func (w *Writer[K]) write(b []byte) error {
	_, err := w.f.Write(b)
	w.off += uint64(len(b))
	w.buf.b = b[:0]
	return err
}

// Append encodes entries onto the open block, flushing it whenever the
// next entry would push it past the target size (an entry larger than a
// whole block is a block of its own). The entries (and their payloads)
// are fully copied before Append returns.
func (w *Writer[K]) Append(entries []comm.Entry[K]) error {
	if w.done != nil {
		return w.done
	}
	for len(entries) > 0 {
		n := comm.EntriesFitting(entries, w.codec, w.blockBytes-len(w.buf.b))
		if n == 0 {
			if w.count > 0 {
				if err := w.flush(); err != nil {
					return err
				}
				continue
			}
			n = 1
		}
		w.buf.b = comm.EncodeEntries(w.buf.b, entries[:n], w.codec)
		w.count += uint32(n)
		entries = entries[n:]
	}
	return nil
}

// flush checksums and writes the open block and records its index entry.
func (w *Writer[K]) flush() error {
	if w.count == 0 {
		return nil
	}
	if err := failpoint.HitNoPanic(FpWriteBlock); err != nil {
		return w.fail(err)
	}
	block := w.buf.b
	w.index = append(w.index, blockMeta{
		offset:    w.off,
		storedLen: uint32(len(block)),
		count:     w.count,
		crc:       crc32.Checksum(block, castagnoli),
	})
	w.entries += uint64(w.count)
	w.count = 0
	if err := w.write(block); err != nil {
		return w.fail(fmt.Errorf("spill: write block: %w", err))
	}
	return nil
}

// Finish flushes the open block, writes the index and trailer, and
// closes the file. After Finish the run is complete on disk and
// BytesWritten/Entries report its final totals.
func (w *Writer[K]) Finish() error {
	if w.done != nil {
		return w.done
	}
	if err := w.flush(); err != nil {
		return err
	}
	tail := w.buf.b
	for _, m := range w.index {
		tail = binary.LittleEndian.AppendUint64(tail, m.offset)
		tail = binary.LittleEndian.AppendUint32(tail, m.storedLen)
		tail = binary.LittleEndian.AppendUint32(tail, m.storedLen) // rawLen
		tail = binary.LittleEndian.AppendUint32(tail, m.count)
		tail = binary.LittleEndian.AppendUint32(tail, m.crc)
		tail = binary.LittleEndian.AppendUint32(tail, 0) // flags
	}
	indexCRC := crc32.Checksum(tail, castagnoli)
	tail = binary.LittleEndian.AppendUint64(tail, w.off)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(w.index)))
	tail = binary.LittleEndian.AppendUint64(tail, w.entries)
	tail = binary.LittleEndian.AppendUint32(tail, indexCRC)
	tail = append(tail, indexMagic...)
	if err := w.write(tail); err != nil {
		return w.fail(fmt.Errorf("spill: write index and trailer: %w", err))
	}
	err := w.f.Close()
	w.f = nil
	if err != nil {
		err = fmt.Errorf("spill: close run file: %w", err)
		w.release(err)
		return err
	}
	w.release(errFinished)
	return nil
}

// release returns the block buffer to the pool, once, and records why
// the writer stopped; the first reason sticks.
func (w *Writer[K]) release(why error) {
	if w.buf != nil {
		bufPool.Put(w.buf)
		w.buf = nil
	}
	if w.done == nil {
		w.done = why
	}
}

// fail records the first error, closes the file and removes the partial
// run; subsequent calls keep returning the original error.
func (w *Writer[K]) fail(err error) error {
	w.release(err)
	w.Abort()
	return w.done
}

// Abort closes and removes the run file. Safe to call after Finish (the
// completed file is removed) or after a failure (idempotent).
func (w *Writer[K]) Abort() {
	w.release(errAborted)
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.path)
}

// Path returns the run file path.
func (w *Writer[K]) Path() string { return w.path }

// BytesWritten reports the total bytes of the run file written so far,
// header and (after Finish) index/trailer included — the writer-side
// half of the Report's SpillBytes column.
func (w *Writer[K]) BytesWritten() int64 { return int64(w.off) }

// Entries reports how many entries have been flushed into blocks.
func (w *Writer[K]) Entries() uint64 { return w.entries }
