// Package spill implements the out-of-core run tier: sorted runs of
// entries written as blocks and streamed back through lsort.Cursor
// readers, so the merge path can consume runs that never fit in RAM
// exactly like resident slabs. A run of key-only entries can be written
// from the comm.NormRefs standing for them and read back as refs
// (Writer.AppendRefs, OpenRefRun): the bytes are the entries' either way.
//
// A run is a list of blocks. Where the list is kept is the only thing
// that tells the tier's two kinds of run apart:
//
//   - A scratch run (NewRunWriter, OpenRun) is what the engine spills. Its
//     blocks sit in a Scratch file shared by every run of one spilling
//     stage, at offsets the writers reserve as they go, and its block list
//     never leaves memory: sealing the writer hands it over as a Run, and
//     a reader is the shared descriptor plus that list. Nothing but blocks
//     is on disk and nothing is re-read or re-validated at open — the
//     process that reads a scratch run wrote it a moment ago. The file
//     has no name and outlives its stage: the engine's ScratchPool hands
//     it to the next stage that spills, which writes from offset zero.
//   - A run file (NewWriter, NewRunReader) is the self-describing
//     version-1 format: one named file per run, the block list stored
//     behind the blocks as an index and found again through a trailer,
//     all of it validated at open. Neither the engine nor the service
//     writes one; only the benchmark's spill layer still measures it.
//
// An upload spool is scratch runs too (core.Spool): the sorted chunk
// runs of one upload, in a file of the engine's pool.
//
// Run file layout (all integers little-endian):
//
//	header:  magic "PGXSPIL1" | version u16 | flags u16 | reserved u32
//	blocks:  per block, comm.EncodeEntries output, stored as is
//	index:   per block: offset u64 | storedLen u32 | rawLen u32 |
//	         count u32 | crc32c u32 | flags u32
//	trailer: indexOff u64 | blockCount u32 | totalEntries u64 |
//	         indexCRC u32 | magic "PGXSPIX1"
//
// Blocks are stored raw: rawLen always equals storedLen and the block
// flags are zero; a reader rejects anything else as ErrCorrupt. Spilled
// bytes are scratch — written and read back by one process — so the tier
// should cost what moving its bytes costs. Blocks used to be deflated at
// BestSpeed, which bought 10.9 instead of 16.0 file bytes per uint64 key
// and cost ≈ 65 % of all CPU and 63 % of all allocated bytes of a budgeted
// sort; and a file per run cost a budgeted sort of 2^16 keys 28 creates,
// opens and unlinks an operation and 18 % of its CPU in system calls,
// one file per stage 8 and 10 %, and files the engine keeps (ScratchPool)
// none and 4 %: at that size startups are the bound, not bytes.
//
// A block is the I/O unit: a writer encodes into one pooled buffer and
// hands it to the file in a single write; a reader's Next fetches one
// block into a pooled buffer with one read, checksums it and decodes it
// into a pooled slab — synchronously: nothing reads ahead. Each block
// checksums its bytes
// with CRC32-Castagnoli, so a flipped bit surfaces as ErrCorrupt before
// any entry is decoded; a run file's index carries its own checksum and
// the trailer is found at a fixed offset from the end, so truncation and
// bad index offsets are caught at open time. Corruption is a data
// problem, never a panic: every validation failure wraps ErrCorrupt,
// which the engine classifies FailDataDependent.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"

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

// Failpoint sites covering spill I/O; the two block sites are wired into
// the soak storm like every other stage. All downgrade panics to errors
// (HitNoPanic): they fire on writer flush and reader fetch paths where an
// unwind would leak a block buffer or a half-written run.
const (
	FpCreateScratch = "spill/create-scratch"
	FpWriteBlock    = "spill/write-block"
	FpReadBlock     = "spill/read-block"
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

// blockBuf is the one byte buffer an open run costs: a writer's open
// block, a reader's fetched block. Buffers circulate through bufPool, so
// a sort that opens dozens of runs per node allocates a handful. Whoever
// takes one returns it exactly once and drops its reference — a buffer
// returned twice is two runs sharing one block.
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

// blockMeta is one entry of a block list: where a block's bytes live and
// what they must hash to. A run file's on-disk index entry also carries
// rawLen and flags, fixed at storedLen and zero.
type blockMeta struct {
	offset    uint64
	storedLen uint32
	count     uint32
	crc       uint32
}

// Scratch is the one file the runs of a spilling stage share. Any number
// of run writers append blocks to it concurrently — each block's offset
// is reserved before it is written, so blocks of different runs
// interleave and never overlap — and any number of readers fetch blocks
// back through the same descriptor. The file has no name (NewScratch), so
// it is a descriptor and the blocks behind it, and it goes with its last
// descriptor however the process ends. A stage takes one from its engine's ScratchPool and gives it back
// once its runs are merged, so one file serves stage after stage.
type Scratch struct {
	f      *os.File
	next   atomic.Int64 // first byte this stage's blocks have not reserved
	size   int64        // the file's length is at most this (ScratchPool's)
	failed atomic.Bool  // a read or write of it failed: closed, not reused
}

// NewScratch creates a scratch file directly under dir, the system temp
// dir when dir is empty, that has no name. On Linux it is opened unnamed
// (O_TMPFILE) and never has one. Elsewhere, or where dir's file system
// cannot open one, it is created and unlinked at once (newNamedScratch).
// spill/create-scratch fires once the file exists.
func NewScratch(dir string) (*Scratch, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := openUnnamed(dir)
	if errors.Is(err, errors.ErrUnsupported) {
		return newNamedScratch(dir)
	}
	if err != nil {
		return nil, fmt.Errorf("spill: create scratch file: %w", err)
	}
	if err := failpoint.HitNoPanic(FpCreateScratch); err != nil {
		f.Close()
		return nil, err
	}
	return &Scratch{f: f}, nil
}

// newNamedScratch is NewScratch by name: the file is created under dir
// and unlinked at once. A file that cannot be unlinked is closed and
// reported: it would outlive the process on disk. spill/create-scratch
// fires between the create and the unlink, the only moment the file has
// a name, so a process killed there leaves it behind.
func newNamedScratch(dir string) (*Scratch, error) {
	f, err := os.CreateTemp(dir, "pgxsort-*.scratch")
	if err != nil {
		return nil, fmt.Errorf("spill: create scratch file: %w", err)
	}
	err = failpoint.HitNoPanic(FpCreateScratch)
	if rerr := os.Remove(f.Name()); rerr != nil && err == nil {
		err = fmt.Errorf("spill: unlink scratch file: %w", rerr)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Scratch{f: f}, nil
}

// file is s's descriptor; a nil Scratch (the zero Run's) has none.
func (s *Scratch) file() *os.File {
	if s == nil {
		return nil
	}
	return s.f
}

// reserve claims the next n bytes of the file and returns their offset.
func (s *Scratch) reserve(n int) uint64 {
	return uint64(s.next.Add(int64(n))) - uint64(n)
}

// fail marks s as a file a read or write went wrong on; nil is no file.
func (s *Scratch) fail() {
	if s != nil {
		s.failed.Store(true)
	}
}

// Close closes the descriptor, once every reader of its runs is closed,
// and with it the file. Closing a nil or closed Scratch does nothing.
func (s *Scratch) Close() error {
	if s == nil || s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("spill: close scratch file: %w", err)
	}
	return nil
}

// ScratchPool is an engine's free list of scratch files. A stage that
// spills takes one, reserves its blocks from offset zero and gives it
// back once no reader of its runs is open, so a sort does not create,
// grow and unlink a file per stage. A file is made only when every file
// the pool has made is taken: the pool holds at most as many as stages
// ever spilled at once, and nothing before the first Take. Safe for
// concurrent use.
type ScratchPool struct {
	dir    string
	mu     sync.Mutex
	idle   []*Scratch
	closed bool
}

// NewScratchPool returns an empty pool whose files go directly under dir
// (the system temp dir when empty).
func NewScratchPool(dir string) *ScratchPool { return &ScratchPool{dir: dir} }

// Take hands a stage a scratch file to reserve from offset zero: an idle
// one, or a new one when none is idle. spill/create-scratch fires once a
// take, reused or new. A reused file's old bytes are never read: a run
// reads its own block list and nothing else.
func (p *ScratchPool) Take() (*Scratch, error) {
	p.mu.Lock()
	var s *Scratch
	if n := len(p.idle); n > 0 {
		s = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		return NewScratch(p.dir)
	}
	if err := failpoint.HitNoPanic(FpCreateScratch); err != nil {
		p.Give(s)
		return nil, err
	}
	return s, nil
}

// Give takes a scratch file back from its stage. The file keeps its
// descriptor and its blocks up to the extent the stage reserved, and a
// longer tail an earlier stage left is cut off, so an idle file holds no
// more disk than its last stage used. A file a read or write failed on,
// or one given back after Close, is closed instead. Giving nil does
// nothing; a scratch given twice would be two stages' file.
func (p *ScratchPool) Give(s *Scratch) {
	if s == nil {
		return
	}
	end := s.next.Swap(0)
	if end < s.size && !s.failed.Load() {
		if err := s.f.Truncate(end); err != nil {
			s.fail()
		}
	}
	s.size = end
	p.mu.Lock()
	keep := !p.closed && !s.failed.Load()
	if keep {
		p.idle = append(p.idle, s)
	}
	p.mu.Unlock()
	if !keep {
		s.Close()
	}
}

// Close closes every idle file; a file given back later is closed as it
// comes. Idempotent.
func (p *ScratchPool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, s := range idle {
		s.Close()
	}
}

// Run is a sealed scratch run: the blocks that hold its entries, in
// order, and the file they are in. It is valid until that Scratch is
// closed or given back to its pool. The zero Run is an empty run.
type Run struct {
	file    *Scratch
	blocks  []blockMeta
	entries uint64
}

// Entries reports how many entries the run holds.
func (r Run) Entries() uint64 { return r.entries }

// Writer appends one sorted run, block by block, to a run file of its own
// (NewWriter) or to a shared Scratch (NewRunWriter). Entries are encoded
// immediately on Append (payloads may alias transient message slabs, so
// nothing entry-shaped is retained) into the one block buffer, which is
// checksummed and written whole once the next entry would not fit in
// BlockBytes. Callers must Append entries in run order; the run records
// order, it does not sort. Not safe for concurrent use.
type Writer[K any] struct {
	path    string   // the writer's own run file; empty in a scratch
	f       *os.File // path's descriptor, or the scratch's
	scratch *Scratch // where block offsets are reserved; nil in a run file
	codec   comm.Codec[K]

	blockBytes int
	buf        *blockBuf // the open block; nil once the writer is done
	count      uint32    // entries in the open block

	off     uint64 // bytes written; in a run file, also where the next go
	index   []blockMeta
	first   [2]blockMeta // index's first backing array: most runs are a block or two
	entries uint64
	done    error // why Append/Finish no longer work: failure, Abort or Finish
}

// NewWriter creates the run file path (truncating any previous file) and
// writes the header. blockBytes <= 0 selects DefaultBlockBytes.
func NewWriter[K any](path string, c comm.Codec[K], blockBytes int) (*Writer[K], error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("spill: create run file: %w", err)
	}
	w := newWriter(f, nil, c, blockBytes)
	w.path = path
	hdr := w.buf.sized(headerSize)
	clear(hdr)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[8:], version)
	if _, err := w.write(hdr); err != nil {
		return nil, w.fail(fmt.Errorf("spill: write header: %w", err))
	}
	return w, nil
}

// NewRunWriter starts a run in s. Nothing touches the file until the
// first block fills, and a run that fails or is aborted leaves s and
// every other run in it as they were: its blocks are dead bytes the
// file's next stage writes over.
func NewRunWriter[K any](s *Scratch, c comm.Codec[K], blockBytes int) *Writer[K] {
	return newWriter(s.f, s, c, blockBytes)
}

func newWriter[K any](f *os.File, s *Scratch, c comm.Codec[K], blockBytes int) *Writer[K] {
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	w := &Writer[K]{f: f, scratch: s, codec: c, blockBytes: blockBytes, buf: getBuf(blockBytes)}
	w.index = w.first[:0]
	return w
}

// write hands b — the block buffer's contents — to the file, at the
// writer's own position or at one reserved in the scratch, empties the
// buffer and returns where b went.
func (w *Writer[K]) write(b []byte) (uint64, error) {
	at := w.off
	if w.scratch != nil {
		at = w.scratch.reserve(len(b))
	}
	_, err := w.f.WriteAt(b, int64(at))
	if err != nil {
		w.scratch.fail()
	}
	w.off += uint64(len(b))
	w.buf.b = b[:0]
	return at, err
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
		n, err := w.take(comm.EntriesFitting(entries, w.codec, w.blockBytes-len(w.buf.b)))
		if err != nil {
			return err
		}
		w.buf.b = comm.EncodeEntries(w.buf.b, entries[:n], w.codec)
		w.count += uint32(n)
		entries = entries[n:]
	}
	return nil
}

// AppendRefs is Append for the key-only entries refs stand for
// (comm.NormRef), each from its ref's origin node: it writes their bytes,
// block for block what Append writes for those entries, without building
// one. The codec must frame refs (comm.RefDenorm).
func (w *Writer[K]) AppendRefs(refs []comm.NormRef) error {
	if w.done != nil {
		return w.done
	}
	for len(refs) > 0 {
		n, err := w.take(comm.RefsFitting(refs, w.codec, w.blockBytes-len(w.buf.b)))
		if err != nil {
			return err
		}
		w.buf.b = comm.EncodeRefs(w.buf.b, refs[:n], w.codec)
		w.count += uint32(n)
		refs = refs[n:]
	}
	return nil
}

// take turns fit — how many of the next elements fit the open block's
// room — into how many to encode onto it now: fit; one, alone in an
// empty block, when not even one fits a whole block; or none once a full
// block is flushed, so the caller asks again with a whole block's room.
func (w *Writer[K]) take(fit int) (int, error) {
	if fit > 0 || w.count == 0 {
		return max(fit, 1), nil
	}
	return 0, w.flush()
}

// flush checksums and writes the open block and adds it to the block
// list.
func (w *Writer[K]) flush() error {
	if w.count == 0 {
		return nil
	}
	if err := failpoint.HitNoPanic(FpWriteBlock); err != nil {
		return w.fail(err)
	}
	block := w.buf.b
	m := blockMeta{
		storedLen: uint32(len(block)),
		count:     w.count,
		crc:       crc32.Checksum(block, castagnoli),
	}
	var err error
	m.offset, err = w.write(block)
	w.index = append(w.index, m)
	w.entries += uint64(w.count)
	w.count = 0
	if err != nil {
		return w.fail(fmt.Errorf("spill: write block: %w", err))
	}
	return nil
}

// Finish flushes the open block and seals the run: a run file gets its
// index and trailer and is closed, a scratch run's block list stays in
// memory for Run to hand over. After Finish BytesWritten/Entries report
// the run's final totals.
func (w *Writer[K]) Finish() error {
	if w.done != nil {
		return w.done
	}
	if err := w.flush(); err != nil {
		return err
	}
	if w.scratch != nil {
		w.release(errFinished)
		return nil
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
	if _, err := w.write(tail); err != nil {
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

// Run hands over a finished scratch run.
func (w *Writer[K]) Run() Run {
	return Run{file: w.scratch, blocks: w.index, entries: w.entries}
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

// fail records the first error and aborts the run; subsequent calls keep
// returning the original error.
func (w *Writer[K]) fail(err error) error {
	w.release(err)
	w.Abort()
	return w.done
}

// Abort gives the run up: the writer lets go of its block buffer and a
// run file is closed and removed (a scratch run's blocks stay dead bytes
// in its Scratch). Safe to call after Finish or after a failure
// (idempotent).
func (w *Writer[K]) Abort() {
	w.release(errAborted)
	if w.scratch != nil {
		return
	}
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.path)
}

// Path returns the run file path; a scratch run has none.
func (w *Writer[K]) Path() string { return w.path }

// BytesWritten reports the bytes this run has put on disk so far — the
// writer-side half of the Report's SpillBytes column. A scratch run is
// its blocks and nothing else; a run file adds its header and (after
// Finish) index and trailer.
func (w *Writer[K]) BytesWritten() int64 { return int64(w.off) }

// Entries reports how many entries have been flushed into blocks.
func (w *Writer[K]) Entries() uint64 { return w.entries }
