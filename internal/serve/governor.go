package serve

import (
	"sync"
	"unsafe"

	"pgxsort/internal/comm"
	"pgxsort/internal/lsort"
)

// governor is the process-wide memory ledger: every admitted job
// reserves an estimated resident footprint before it runs and releases
// it when its response is written, so the server's aggregate memory
// commitment — not just the per-engine temporary budget — stays under
// one knob (Config.GovernorBudget). Reservations are heuristic
// (decode buffers, ref and entry slabs, key column and result bytes for
// resident jobs, see residentJobBytes; a small fixed window for spooled
// jobs), while the peak gauge also folds in
// each job's tracker-accounted engine peak, so the exported numbers mix
// an upper-bound admission estimate with measured truth.
type governor struct {
	budget int64 // <= 0 means unlimited (ledger still tracks)

	mu      sync.Mutex
	inuse   int64
	peak    int64 // high-water mark of inuse
	jobPeak int64 // max tracker-accounted per-job engine temp peak
	spooled int64 // jobs that took the spool path (counter)
}

func newGovernor(budget int64) *governor {
	return &governor{budget: budget}
}

// residentJobBytes estimates the resident footprint of one of this
// backend's datasets that runs fully in memory: n keys, size canonical
// bytes. Its terms are what the job holds, each counted whole, so the sum
// is an upper bound (step 1's scratch is back before step 6 takes its
// slabs). A key costs its decoded input and its place in the sorted key
// column (a K each), step 1's ref and scratch slabs and step 6's landed
// and spare refs (a 16-byte ref each). A key type whose norm has no
// inverse sorts by entry: step 5 builds the share's entries and step 6
// lands the received ones, an entry each. The encoded answer is size
// bytes. A variable-width key's bytes are held by the input, and once
// more by the landed entries when a transport decodes them afresh. For
// uint64 keys that is 8 + 8 + 4·16 = 80 bytes a key plus the 8-byte
// answer; for strings 16 + 16 + 4·16 + 2·48 = 192 bytes a key plus three
// times the canonical bytes. The fixed part covers the decode window and
// the scheduler's small allocations.
func (b *typedBackend[K]) residentJobBytes(n, size int) int64 {
	var k K
	perKey := 2*int64(unsafe.Sizeof(k)) + 4*int64(unsafe.Sizeof(lsort.NormRef{}))
	if _, byRef := comm.RefDenorm(b.codec); !byRef {
		perKey += 2 * int64(unsafe.Sizeof(comm.Entry[K]{}))
	}
	held := int64(size)
	if b.width == 0 {
		held *= 3
	}
	return int64(n)*perKey + held + 1<<20
}

// spooledJobBytes estimates the resident footprint of a spooled job:
// the pre-threshold accumulation plus stream buffers. The engine-side
// working set is separately bounded by MemoryBudget.
func spooledJobBytes(threshold int64) int64 {
	return threshold + 1<<20
}

// reserve claims bytes for one job; false means admitting it would
// push the ledger past the budget. A reservation larger than the whole
// budget can never succeed — callers map that onto 413, not 429.
func (g *governor) reserve(bytes int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.budget > 0 && g.inuse+bytes > g.budget {
		return false
	}
	g.inuse += bytes
	if g.inuse > g.peak {
		g.peak = g.inuse
	}
	return true
}

// release returns a reservation to the ledger.
func (g *governor) release(bytes int64) {
	g.mu.Lock()
	g.inuse -= bytes
	g.mu.Unlock()
}

// oversized reports whether a reservation could never fit: the 413 case.
func (g *governor) oversized(bytes int64) bool {
	return g.budget > 0 && bytes > g.budget
}

// noteSpooled counts one job landed in the spill tier.
func (g *governor) noteSpooled() {
	g.mu.Lock()
	g.spooled++
	g.mu.Unlock()
}

// notePeak folds one job's measured engine temp peak into the gauge.
func (g *governor) notePeak(p int64) {
	g.mu.Lock()
	if p > g.jobPeak {
		g.jobPeak = p
	}
	g.mu.Unlock()
}

// stats snapshots the ledger for /metrics. peak is the larger of the
// reservation high-water mark and the worst measured per-job engine
// peak.
func (g *governor) stats() (inuse, peak, spooled, budget int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	peak = g.peak
	if g.jobPeak > peak {
		peak = g.jobPeak
	}
	b := g.budget
	if b < 0 {
		b = 0
	}
	return g.inuse, peak, g.spooled, b
}
