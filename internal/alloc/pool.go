package alloc

import (
	"math/bits"
	"sync"
)

// slabClasses bounds the power-of-two capacity classes a SlabPool keeps
// (class c holds slabs with capacity in [2^c, 2^(c+1))). 2^47 elements is
// far beyond any slab this repo allocates.
const slabClasses = 48

// slabsPerClass bounds how many idle slabs a class retains unless the
// pool says otherwise (SlabPool.Keep). Retention is
// deliberately small and deterministic (unlike sync.Pool, nothing is
// dropped by GC pressure), so a pipelined SortMany run keeps exactly the
// working set of its deepest overlap and no more.
const slabsPerClass = 4

// SlabPool recycles slices of E by power-of-two capacity class, so
// repeated sorts reuse their entry and scratch buffers instead of
// churning the allocator. The zero value is ready to use; a nil *SlabPool
// is also valid and falls back to plain allocation (tests and the
// repository benchmark pass nil pools to the spill readers).
//
// Get returns a slice of length n whose contents are unspecified (slabs
// are not cleared); every caller fully overwrites what it reads. Put
// recycles a slab for a later Get; the caller must not retain or read the
// slice after Put. SlabPool does not touch the temporary-memory Tracker:
// call sites keep their explicit Alloc/Free bracketing around the window
// a buffer is live, so the Figure 11 accounting reflects use, not caching,
// and still balances to zero after every sort.
//
// All methods are safe for concurrent use.
type SlabPool[E any] struct {
	// Keep is how many idle slabs a class retains; 0 means four. A pool
	// whose users hold more slabs of one size at once than that — the
	// engine's ref pool under two concurrent sorts — sets it before
	// first use.
	Keep int

	mu      sync.Mutex
	classes [slabClasses][][]E
	gets    int64
	hits    int64
	puts    int64
}

// slabClass returns the class whose slabs satisfy a request for n
// elements: the smallest c with 2^c >= n.
func slabClass(n int) int {
	return bits.Len(uint(n - 1))
}

// Get returns a slice of length n, reusing an idle slab when one fits.
func (p *SlabPool[E]) Get(n int) []E {
	if n <= 0 {
		return nil
	}
	if p == nil {
		return make([]E, n)
	}
	c := slabClass(n)
	if c >= slabClasses {
		return make([]E, n)
	}
	p.mu.Lock()
	p.gets++
	if l := len(p.classes[c]); l > 0 {
		s := p.classes[c][l-1]
		p.classes[c][l-1] = nil
		p.classes[c] = p.classes[c][:l-1]
		p.hits++
		p.mu.Unlock()
		return s[:n]
	}
	p.mu.Unlock()
	return make([]E, n, 1<<c)
}

// Put offers a slab back to the pool. Slabs of any capacity are accepted
// (they are filed under the largest class their capacity fully covers);
// classes that are already full drop the slab for the GC.
func (p *SlabPool[E]) Put(s []E) {
	if p == nil || cap(s) == 0 {
		return
	}
	c := bits.Len(uint(cap(s))) - 1 // floor: every Get from class c needs <= 2^c <= cap(s)
	if c >= slabClasses {
		return
	}
	p.mu.Lock()
	p.puts++
	keep := p.Keep
	if keep == 0 {
		keep = slabsPerClass
	}
	if len(p.classes[c]) < keep {
		p.classes[c] = append(p.classes[c], s[:0])
	}
	p.mu.Unlock()
}

// Stats reports how many Gets the pool served, how many of them reused an
// idle slab, and how many slabs were Put back: a sort that fails must
// return every slab it took, so gets and puts move together across it.
func (p *SlabPool[E]) Stats() (gets, hits, puts int64) {
	if p == nil {
		return 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits, p.puts
}
