package alloc

import (
	"sync"
	"testing"
)

func TestSlabPoolReuses(t *testing.T) {
	var p SlabPool[uint64]
	s := p.Get(100)
	if len(s) != 100 {
		t.Fatalf("Get(100) len = %d", len(s))
	}
	if cap(s) != 128 {
		t.Fatalf("Get(100) cap = %d, want the 2^7 class", cap(s))
	}
	first := &s[0]
	p.Put(s)

	// Any request the slab's class covers gets the same backing array.
	for _, n := range []int{100, 65, 128} {
		r := p.Get(n)
		if len(r) != n {
			t.Fatalf("Get(%d) len = %d", n, len(r))
		}
		if &r[0] != first {
			t.Fatalf("Get(%d) did not reuse the pooled slab", n)
		}
		p.Put(r)
	}
	gets, hits, puts := p.Stats()
	if gets != 4 || hits != 3 || puts != 4 {
		t.Fatalf("stats = (%d gets, %d hits, %d puts), want (4, 3, 4)", gets, hits, puts)
	}
}

func TestSlabPoolClassIsolation(t *testing.T) {
	var p SlabPool[int]
	small := p.Get(10) // class 4 (cap 16)
	p.Put(small)
	big := p.Get(1000) // class 10: must not be served by the cap-16 slab
	if cap(big) < 1000 {
		t.Fatalf("Get(1000) cap = %d", cap(big))
	}
	if len(big) != 1000 {
		t.Fatalf("Get(1000) len = %d", len(big))
	}
}

func TestSlabPoolOddCapacity(t *testing.T) {
	var p SlabPool[byte]
	// A slab whose capacity is not a power of two (e.g. allocated outside
	// the pool) files under the largest class it fully covers.
	odd := make([]byte, 0, 100) // covers class 6 (<= 64)
	p.Put(odd)
	got := p.Get(60)
	if cap(got) != 100 {
		t.Fatalf("Get(60) cap = %d, want the odd slab reused", cap(got))
	}
	if len(got) != 60 {
		t.Fatalf("Get(60) len = %d", len(got))
	}
}

// TestSlabPoolBoundedRetention: a class keeps four idle slabs, or as
// many as the pool's Keep says, and drops the rest for the GC.
func TestSlabPoolBoundedRetention(t *testing.T) {
	for _, keep := range []int{0, 8} {
		want := keep
		if keep == 0 {
			want = slabsPerClass
		}
		p := SlabPool[int]{Keep: keep}
		slabs := make([][]int, want+3)
		for i := range slabs {
			slabs[i] = make([]int, 64)
		}
		for _, s := range slabs {
			p.Put(s)
		}
		kept := 0
		seen := map[*int]bool{}
		for i := 0; i < len(slabs); i++ {
			g := p.Get(64)
			if !seen[&g[0]] {
				for _, s := range slabs {
					if &s[0] == &g[0] {
						kept++
					}
				}
			}
			seen[&g[0]] = true
		}
		if kept != want {
			t.Fatalf("Keep %d: retained %d slabs, want %d", keep, kept, want)
		}
	}
}

// TestSlabPoolClearsOnPut: a pool with Clear set hands back a slab of
// pointers zeroed, so an idle slab pins nothing; PutAsIs and a pool
// without Clear leave it as it was.
func TestSlabPoolClearsOnPut(t *testing.T) {
	for _, c := range []struct {
		clear, asIs, want bool
	}{{true, false, true}, {true, true, false}, {false, false, false}} {
		p := SlabPool[*int]{Clear: c.clear}
		s := p.Get(8)
		for i := range s {
			s[i] = new(int)
		}
		if c.asIs {
			p.PutAsIs(s)
		} else {
			p.Put(s)
		}
		g := p.Get(8)
		if &g[0] != &s[0] {
			t.Fatalf("%+v: the slab was not reused", c)
		}
		for i, v := range g {
			if cleared := v == nil; cleared != c.want {
				t.Fatalf("%+v: element %d cleared = %v", c, i, cleared)
			}
		}
	}
}

func TestSlabPoolNilAndZero(t *testing.T) {
	var p *SlabPool[int]
	if s := p.Get(5); len(s) != 5 {
		t.Fatalf("nil pool Get(5) len = %d", len(s))
	}
	p.Put(make([]int, 3)) // must not panic
	if gets, hits, puts := p.Stats(); gets != 0 || hits != 0 || puts != 0 {
		t.Fatalf("nil pool stats = (%d, %d, %d)", gets, hits, puts)
	}

	var q SlabPool[int]
	if s := q.Get(0); s != nil {
		t.Fatalf("Get(0) = %v, want nil", s)
	}
	q.Put(nil) // must not panic
}

func TestSlabPoolConcurrent(t *testing.T) {
	var p SlabPool[uint64]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := p.Get(64 + g)
				for j := range s {
					s[j] = uint64(g)
				}
				for j := range s {
					if s[j] != uint64(g) {
						t.Errorf("slab shared between goroutines")
						return
					}
				}
				p.Put(s)
			}
		}(g)
	}
	wg.Wait()
}
