// Package datamgr is the analogue of PGX.D's data manager (§III): it owns
// the buffer-size policy that drives message chunking (the 256KB
// read/request buffer at the heart of the paper's sampling rule), and the
// receive-side assembly buffers that let a processor accept data chunks
// from every peer simultaneously by writing them at precomputed offsets
// (§IV-C).
package datamgr

import (
	"fmt"
	"sync"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/failpoint"
)

// fpWrite is the failpoint site covering exchange assembly: it fires in
// Write, on the receiving node's goroutine, while peer chunks and the
// concurrent sender are in flight — the messiest spot to unwind from.
// Panic schedules are downgraded to errors here (HitNoPanic): an unwind
// past the exchange's concurrent sender would strand it.
const fpWrite = "datamgr/assembly-write"

// Manager holds one processor's buffer policy and memory tracker.
type Manager struct {
	// BufferBytes is the request/read buffer size; messages carrying more
	// than this many payload bytes are split. Defaults to
	// sample.DefaultBufferBytes (256KB) when zero.
	BufferBytes int
	// Tracker accounts temporary allocations (may be nil).
	Tracker *alloc.Tracker
}

// DefaultBufferBytes mirrors sample.DefaultBufferBytes without importing it.
const DefaultBufferBytes = 256 * 1024

func (m *Manager) bufferBytes() int {
	if m == nil || m.BufferBytes <= 0 {
		return DefaultBufferBytes
	}
	return m.BufferBytes
}

// ChunkLen returns how many entries of entryBytes each fit in one request
// buffer (at least 1).
func (m *Manager) ChunkLen(entryBytes int) int {
	if entryBytes < 1 {
		entryBytes = 1
	}
	n := m.bufferBytes() / entryBytes
	if n < 1 {
		n = 1
	}
	return n
}

// Chunks invokes fn for each buffer-sized chunk of entries, in order.
// It mirrors the request-buffer flush behaviour: a message goes out when
// the buffer fills or the remaining data ends (flush-on-complete). last is
// true on the final chunk, so senders can stamp a run-complete signal on
// it (comm.FlagRunComplete) for the receiver to cross-check against the
// range metadata.
// Zero entries invoke fn not at all: an empty run has no final chunk, and
// receivers learn its completeness from the range metadata instead.
func Chunks[K any](m *Manager, entries []comm.Entry[K], keyBytes int, fn func(chunk []comm.Entry[K], last bool) error) error {
	if len(entries) == 0 {
		return nil
	}
	step := m.ChunkLen(keyBytes + 8)
	for lo := 0; lo < len(entries); lo += step {
		hi := lo + step
		if hi > len(entries) {
			hi = len(entries)
		}
		if err := fn(entries[lo:hi], hi == len(entries)); err != nil {
			return err
		}
	}
	return nil
}

// Assembly is a receive buffer for the all-to-all exchange. The range
// metadata broadcast tells the processor how many entries each source will
// send; Assembly precomputes one offset per source so chunks from
// different sources are written concurrently without coordination, and
// chunks from the same source (which arrive in FIFO order) advance a
// per-source cursor.
type Assembly[K any] struct {
	entries []comm.Entry[K]
	offsets []int // base offset per source
	cursor  []int // next write position per source (relative to base)
	expect  []int // entries expected per source
	tracker *alloc.Tracker
	size    int64

	// runDone marks sources whose region is fully written (guarded by
	// gotMu): what RunComplete answers.
	gotMu   sync.Mutex
	runDone []bool
}

// NewAssembly allocates an assembly buffer for perSrc[i] entries from each
// source i. entryBytes sizes the temporary-memory accounting.
func NewAssembly[K any](m *Manager, perSrc []int, entryBytes int) *Assembly[K] {
	return NewAssemblyBuf[K](m, perSrc, entryBytes, nil)
}

// NewAssemblyBuf is NewAssembly assembling into a caller-provided buffer
// (e.g. a recycled slab from an alloc.SlabPool) when its capacity covers
// the expected total; an undersized or nil buf falls back to a fresh
// allocation. The temporary-memory accounting is identical either way:
// the assembly is temporary while it is being filled and converts to
// resident result storage at Release, wherever the bytes came from.
func NewAssemblyBuf[K any](m *Manager, perSrc []int, entryBytes int, buf []comm.Entry[K]) *Assembly[K] {
	total := 0
	offsets := make([]int, len(perSrc)+1)
	for i, n := range perSrc {
		if n < 0 {
			panic(fmt.Sprintf("datamgr: negative expected count %d from source %d", n, i))
		}
		offsets[i] = total
		total += n
	}
	offsets[len(perSrc)] = total
	if cap(buf) >= total {
		buf = buf[:total]
	} else {
		buf = make([]comm.Entry[K], total)
	}
	a := &Assembly[K]{
		entries: buf,
		offsets: offsets,
		cursor:  make([]int, len(perSrc)),
		expect:  append([]int(nil), perSrc...),
		runDone: make([]bool, len(perSrc)),
	}
	for src, n := range perSrc {
		a.runDone[src] = n == 0 // nothing to wait for: complete at birth
	}
	if m != nil && m.Tracker != nil {
		a.tracker = m.Tracker
		a.size = int64(total) * int64(entryBytes)
		a.tracker.Alloc(a.size)
	}
	return a
}

// Write copies a chunk arriving from src into its region. Chunks from the
// same source must arrive in order (the transports guarantee per-pair
// FIFO); chunks from different sources may be written concurrently.
func (a *Assembly[K]) Write(src int, chunk []comm.Entry[K]) error {
	if err := failpoint.HitNoPanic(fpWrite); err != nil {
		return err
	}
	if src < 0 || src >= len(a.cursor) {
		return fmt.Errorf("datamgr: source %d out of range", src)
	}
	base := a.offsets[src]
	cur := a.cursor[src]
	if cur+len(chunk) > a.expect[src] {
		return fmt.Errorf("datamgr: source %d overflows its region: %d+%d > %d",
			src, cur, len(chunk), a.expect[src])
	}
	copy(a.entries[base+cur:], chunk)
	a.cursor[src] = cur + len(chunk)
	if a.cursor[src] == a.expect[src] {
		a.gotMu.Lock()
		a.runDone[src] = true
		a.gotMu.Unlock()
	}
	return nil
}

// RunComplete reports whether source src's region is fully written.
func (a *Assembly[K]) RunComplete(src int) bool {
	if src < 0 || src >= len(a.runDone) {
		return false
	}
	a.gotMu.Lock()
	defer a.gotMu.Unlock()
	return a.runDone[src]
}

// Entries exposes the assembled buffer. Each source's region is a sorted
// run; Bounds gives the run boundaries for the final balanced merge.
func (a *Assembly[K]) Entries() []comm.Entry[K] { return a.entries }

// Bounds returns the per-source run boundaries within Entries, in the
// layout MergeAdjacentRuns expects.
func (a *Assembly[K]) Bounds() []int { return a.offsets }

// Release returns the assembly's temporary memory to the tracker.
// The entries buffer itself remains usable by the caller (it becomes the
// node's result storage, i.e. resident rather than temporary memory).
func (a *Assembly[K]) Release() {
	if a.tracker != nil {
		a.tracker.Free(a.size)
		a.tracker = nil
	}
}
