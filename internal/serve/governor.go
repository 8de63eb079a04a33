package serve

import (
	"sync"
)

// governor is the process-wide memory ledger: every admitted job
// reserves an estimated resident footprint before it runs and releases
// it when its response is written, so the server's aggregate memory
// commitment — not just the per-engine temporary budget — stays under
// one knob (Config.GovernorBudget). Reservations are heuristic
// (decode buffers + entries + result bytes for resident jobs, a small
// fixed window for spooled jobs), while the peak gauge also folds in
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

// residentJobBytes estimates the resident footprint of an n-key job
// that runs fully in memory: decoded keys, the engine's entry slabs
// (roughly 2x48 bytes per entry across sort and exchange), and the
// encoded result.
func residentJobBytes(n int) int64 {
	return int64(n)*112 + 1<<20
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
