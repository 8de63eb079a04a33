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

// Chunks invokes fn for each buffer-sized chunk of items — entries, or
// the refs a key-only sort sends in their place (comm.Message.Refs) — in
// order. It mirrors the request-buffer flush behaviour: a message goes out
// when the buffer fills or the remaining data ends (flush-on-complete).
// The chunk length comes from keyBytes, the estimated wire size of one
// item without its origin: 8 for a ref, whose 16 bytes are a norm and
// its origin. last is true on the final chunk, so
// senders can stamp a run-complete signal on it (comm.FlagRunComplete)
// for the receiver to cross-check against the range metadata.
// Zero items invoke fn not at all: an empty run has no final chunk, and
// receivers learn its completeness from the range metadata instead.
func Chunks[E any](m *Manager, items []E, keyBytes int, fn func(chunk []E, last bool) error) error {
	if len(items) == 0 {
		return nil
	}
	step := m.ChunkLen(keyBytes + 8)
	for lo := 0; lo < len(items); lo += step {
		hi := min(lo+step, len(items))
		if err := fn(items[lo:hi], hi == len(items)); err != nil {
			return err
		}
	}
	return nil
}

// Regions is the bookkeeping of a receive buffer for the all-to-all
// exchange. The range metadata broadcast tells the processor how many
// entries each source will send; Regions precomputes one offset per
// source so chunks from different sources land concurrently without
// coordination, and chunks from the same source (which arrive in FIFO
// order) advance a per-source cursor. Assembly is Regions over a buffer of
// entries. The engine's exchange sinks lay their runs out by the same
// Regions: the resident one holds a ref at each position and, unless the
// sort goes by ref, an entry beside it; the spilled one appends each
// source's chunks to that source's run in a scratch file.
type Regions struct {
	offsets []int // base offset per source, then the total
	cursor  []int // next write position per source (relative to base)
	expect  []int // entries expected per source

	// runDone marks sources whose region is fully claimed (guarded by
	// gotMu): what RunComplete answers.
	gotMu   sync.Mutex
	runDone []bool
}

// NewRegions lays out perSrc[i] entries from each source i back to back.
func NewRegions(perSrc []int) *Regions {
	r := new(Regions)
	r.init(perSrc)
	return r
}

func (r *Regions) init(perSrc []int) {
	r.offsets = make([]int, len(perSrc)+1)
	r.cursor = make([]int, len(perSrc))
	r.expect = append([]int(nil), perSrc...)
	r.runDone = make([]bool, len(perSrc))
	total := 0
	for i, n := range perSrc {
		if n < 0 {
			panic(fmt.Sprintf("datamgr: negative expected count %d from source %d", n, i))
		}
		r.offsets[i] = total
		total += n
		r.runDone[i] = n == 0 // nothing to wait for: complete at birth
	}
	r.offsets[len(perSrc)] = total
}

// Claim reserves the next n positions of src's region for a chunk
// arriving from src and returns where they start; the caller fills them.
// Chunks from the same source must arrive in order (the transports
// guarantee per-pair FIFO); chunks from different sources may be claimed
// concurrently. Claim is the assembly-write failpoint site.
func (r *Regions) Claim(src, n int) (int, error) {
	if err := failpoint.HitNoPanic(fpWrite); err != nil {
		return 0, err
	}
	if src < 0 || src >= len(r.cursor) {
		return 0, fmt.Errorf("datamgr: source %d out of range", src)
	}
	cur := r.cursor[src]
	if cur+n > r.expect[src] {
		return 0, fmt.Errorf("datamgr: source %d overflows its region: %d+%d > %d",
			src, cur, n, r.expect[src])
	}
	r.cursor[src] = cur + n
	if r.cursor[src] == r.expect[src] {
		r.gotMu.Lock()
		r.runDone[src] = true
		r.gotMu.Unlock()
	}
	return r.offsets[src] + cur, nil
}

// RunComplete reports whether source src's region is fully claimed:
// written, once the claiming write has returned.
func (r *Regions) RunComplete(src int) bool {
	if src < 0 || src >= len(r.runDone) {
		return false
	}
	r.gotMu.Lock()
	defer r.gotMu.Unlock()
	return r.runDone[src]
}

// Bounds returns the per-source run boundaries, in the layout
// MergeAdjacentRuns expects; the last is the total.
func (r *Regions) Bounds() []int { return r.offsets }

// Assembly is a receive buffer for the all-to-all exchange: Regions over
// one buffer of entries, which each source's chunks are copied into at
// its precomputed offset.
type Assembly[K any] struct {
	Regions
	entries []comm.Entry[K]
	tracker *alloc.Tracker
	size    int64
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
	a := new(Assembly[K])
	a.init(perSrc)
	total := a.offsets[len(perSrc)]
	if cap(buf) >= total {
		buf = buf[:total]
	} else {
		buf = make([]comm.Entry[K], total)
	}
	a.entries = buf
	if m != nil && m.Tracker != nil {
		a.tracker = m.Tracker
		a.size = int64(total) * int64(entryBytes)
		a.tracker.Alloc(a.size)
	}
	return a
}

// Write copies a chunk arriving from src into its region (Regions.Claim).
func (a *Assembly[K]) Write(src int, chunk []comm.Entry[K]) error {
	at, err := a.Claim(src, len(chunk))
	if err != nil {
		return err
	}
	copy(a.entries[at:], chunk)
	return nil
}

// Entries exposes the assembled buffer. Each source's region is a sorted
// run; Bounds gives the run boundaries for the final balanced merge.
func (a *Assembly[K]) Entries() []comm.Entry[K] { return a.entries }

// Release returns the assembly's temporary memory to the tracker.
// The entries buffer itself remains usable by the caller (it becomes the
// node's result storage, i.e. resident rather than temporary memory).
func (a *Assembly[K]) Release() {
	if a.tracker != nil {
		a.tracker.Free(a.size)
		a.tracker = nil
	}
}
