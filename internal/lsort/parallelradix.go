package lsort

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelRadixCutoff is the fewest refs SortNormRefs shares among
// workers. In the engine the p nodes of a sort run step 1 at once, and
// there shares of 2^15 refs sorted faster shared than by one worker
// (service_mixed_u64, 2-core box). A sort alone on an idle machine needs
// twice that to gain from a second worker: a shorter slice's pass does
// not pay for waking a helper and for the cache lines the slices'
// scatters share.
const parallelRadixCutoff = 1 << 15

// maxRadixSlices bounds the slices of one parallel ref sort.
const maxRadixSlices = 64

// radixSlices is how many slices a parallel sort of n refs is split into:
// workers at most, and few enough that the slices² histograms of 2^11
// counters every scatter task sums are no more than its slice's refs:
// slices³ · 2^11 ≤ n. Their memory then stays below the refs' own.
func radixSlices(n, workers int) int {
	s := min(workers, maxRadixSlices)
	for s > 1 && s*s*s<<refDigitBits > n {
		s--
	}
	return s
}

// parallelRadixNormRefs is radixNormRefs's sort with every pass split by
// position into equal slices (radixSlices of them): the same digits
// (planDigits) from the same diff, so the same refs in the same order. A
// pass is one task a slice: the slice's diff, the count of its first
// digit, for each digit its stable scatter to per-(bucket, slice) offsets
// — bucket v's refs from slice t land after those from the slices
// before t — and, last, its part of the walk that finishes equal-prefix
// groups: one pass moves the slice boundaries to group boundaries, the
// next walks. While a slice is scattered the next digit of each ref is
// counted into the histogram of the slice the ref lands in, which is
// what the next pass's offsets are summed from; so, as in the sequential
// kernel, only the first digit has a counting pass of its own.
//
// The caller and one goroutine for each further slice, started for this
// sort, claim the tasks in order, and a pass's tasks wait for the pass
// before to finish. Which goroutine runs a task changes nothing but
// where: on a busy machine the caller may run them all, and a slice's
// refs stay in one core's cache.
func parallelRadixNormRefs(refs, scratch []NormRef, workers int) []NormRef {
	r := takeRadix()
	r.reset(refs, scratch, radixSlices(len(refs), workers))
	r.wg.Add(r.slices - 1)
	for range r.slices - 1 {
		go r.helper()
	}
	out := r.run()
	r.wg.Wait()
	r.refs, r.scratch = nil, nil
	giveRadix(r)
	return out
}

// radixFree recycles the shared state of parallelRadixNormRefs, whose
// histograms are 64 KiB at two slices. It is a free list, not a
// sync.Pool, because a collection empties a sync.Pool: a node sorts one
// share a dataset, collections fall between its sorts, and a few sorts
// in a hundred made their histograms again (BenchmarkKeySort). It
// keeps at most radixFreeMax states of at most radixFreeSlices slices.
var radixFree struct {
	mu     sync.Mutex
	states []*parallelRadix
}

const (
	radixFreeMax    = 8
	radixFreeSlices = 8 // 1 MiB of histograms
)

func takeRadix() *parallelRadix {
	radixFree.mu.Lock()
	defer radixFree.mu.Unlock()
	if n := len(radixFree.states); n > 0 {
		r := radixFree.states[n-1]
		radixFree.states = radixFree.states[:n-1]
		return r
	}
	r := new(parallelRadix)
	r.cond.L = &r.mu
	return r
}

func giveRadix(r *parallelRadix) {
	radixFree.mu.Lock()
	defer radixFree.mu.Unlock()
	if len(radixFree.states) < radixFreeMax && r.slices <= radixFreeSlices {
		radixFree.states = append(radixFree.states, r)
	}
}

// parallelRadix is one parallel ref sort's shared state.
type parallelRadix struct {
	refs, scratch []NormRef
	slices        int
	bounds        []int    // slice t of every pass is [bounds[t], bounds[t+1])
	diffs         []uint64 // each slice's diff
	cuts          []int    // slice t's part of the walk is [cuts[t], cuts[t+1])
	// counts holds two generations of slices × slices histograms, the one
	// a pass reads and the one its scatter writes: histogram (t, s) counts
	// the refs slice t sent to slice s.
	counts []uint32

	claimed atomic.Int32 // tasks claimed, pass after pass
	done    atomic.Int32 // tasks finished
	mu      sync.Mutex   // guards the waits on done
	cond    sync.Cond
	wg      sync.WaitGroup
}

func (r *parallelRadix) reset(refs, scratch []NormRef, slices int) {
	n := len(refs)
	r.refs, r.scratch, r.slices = refs, scratch, slices
	r.bounds = r.bounds[:0]
	for t := 0; t <= slices; t++ {
		r.bounds = append(r.bounds, t*n/slices)
	}
	if cap(r.diffs) < slices {
		r.diffs, r.cuts = make([]uint64, slices), make([]int, slices+1)
	}
	r.diffs, r.cuts = r.diffs[:slices], r.cuts[:slices+1]
	r.cuts[slices] = n
	if size := 2 * slices * slices << refDigitBits; cap(r.counts) < size {
		r.counts = make([]uint32, size)
	}
	r.claimed.Store(0)
	r.done.Store(0)
}

func (r *parallelRadix) helper() {
	defer r.wg.Done()
	r.run()
}

// run claims and runs tasks until there are none left, and returns once
// every task has finished, with the sorted refs.
func (r *parallelRadix) run() []NormRef {
	var plan digitPlan
	passes := 0 // known once the diffs are
	for {
		k := int(r.claimed.Add(1)) - 1
		pass, t := k/r.slices, k%r.slices
		if pass > 0 {
			if passes == 0 {
				r.await(r.slices)
				var diff uint64
				for _, d := range r.diffs {
					diff |= d
				}
				plan = planDigits(diff, len(r.refs))
				passes = plan.passes()
			}
			r.await(min(pass, passes) * r.slices)
			if pass >= passes {
				if plan.digits&1 == 1 {
					return r.scratch
				}
				return r.refs
			}
		}
		r.task(pass, t, &plan)
		if n := r.done.Add(1); int(n)%r.slices == 0 {
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		}
	}
}

// passes is how many passes a parallel radix by p makes: the diff's, and
// unless every norm is equal the first digit's count, a scatter a digit
// and, if bits are left to the walk, the one that cuts it and the walk.
func (p *digitPlan) passes() int {
	switch {
	case p.digits == 0:
		return 1
	case p.rest == 0:
		return 2 + p.digits
	}
	return 4 + p.digits
}

// awaitSpins bounds the yields of a wait before it parks: a goroutine
// woken by the one that finished a pass is queued on that one's P, which
// goes on with the next pass, so a parked waiter waits for a steal —
// about a pass, measured — before it runs.
const awaitSpins = 1000

// await returns once n tasks have finished.
func (r *parallelRadix) await(n int) {
	for i := 0; int(r.done.Load()) < n; i++ {
		if i < awaitSpins {
			runtime.Gosched()
			continue
		}
		r.mu.Lock()
		for int(r.done.Load()) < n {
			r.cond.Wait()
		}
		r.mu.Unlock()
	}
}

// hists returns the slices histograms that slice t's task keeps in
// generation g, one after the other, each refDigitBits wide.
func (r *parallelRadix) hists(g, t int) []uint32 {
	size := r.slices << refDigitBits
	off := (g*r.slices + t) * size
	return r.counts[off : off+size]
}

// task runs slice t's part of the pass.
func (r *parallelRadix) task(pass, t int, plan *digitPlan) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	mask := plan.mask
	switch {
	case pass == 0:
		var diff uint64
		first := r.refs[0].Norm
		for _, x := range r.refs[lo:hi] {
			diff |= x.Norm ^ first
		}
		r.diffs[t] = diff
	case pass == 1:
		own := r.hists((plan.digits-1)&1, t)
		clear(own)
		count := own[t<<refDigitBits:][:1<<refDigitBits]
		for _, x := range r.refs[lo:hi] {
			count[x.Norm>>plan.low&mask]++
		}
	case pass < 2+plan.digits:
		i := pass - 2
		d := plan.digits - 1 - i
		src, dst := r.refs, r.scratch
		if i&1 == 1 {
			src, dst = dst, src
		}
		// pos is where the slice's next ref of each bucket goes, and
		// slice the slice of the next pass that position lies in.
		var pos [1 << refDigitBits]uint32
		var slice [1 << refDigitBits]uint8
		var crossing [maxRadixSlices]span
		crossed := r.offsets(d&1, t, pos[:mask+1], slice[:mask+1], crossing[:0])
		shift := plan.shifts[d]
		if d == 0 {
			for _, x := range src[lo:hi] {
				v := x.Norm >> shift & mask
				dst[pos[v]] = x
				pos[v]++
			}
			return
		}
		next := r.hists(d&1^1, t)
		clear(next)
		nextShift := plan.shifts[d-1]
		for _, x := range src[lo:hi] {
			v := x.Norm >> shift & mask
			dst[pos[v]] = x
			pos[v]++
			next[int(slice[v])<<refDigitBits|int(x.Norm>>nextShift&mask)]++
		}
		// A bucket's refs from this slice were counted in the slice
		// where they begin; move those past its end.
		for _, c := range crossed {
			from := next[c.slice<<refDigitBits:][:1<<refDigitBits]
			for s := c.slice + 1; s < r.slices && r.bounds[s] < c.hi; s++ {
				to := next[s<<refDigitBits:][:1<<refDigitBits]
				for _, x := range dst[r.bounds[s]:min(c.hi, r.bounds[s+1])] {
					v := x.Norm >> nextShift & mask
					from[v]--
					to[v]++
				}
			}
		}
	default:
		src, dst := r.refs, r.scratch
		if plan.digits&1 == 1 {
			src, dst = dst, src
		}
		if pass == 2+plan.digits {
			r.cuts[t] = r.groupStart(src, t, plan.low)
			return
		}
		a, b := r.cuts[t], r.cuts[t+1]
		var counts refHist
		finishGroups(src[a:b], dst[a:b], src[a:b], plan, &counts)
	}
}

// span is a bucket's refs from one slice that cross a slice boundary as
// they are scattered: they go up to hi, beginning in slice.
type span struct {
	slice, hi int
}

// offsets sets slice t's scatter offsets from generation g's histograms:
// bucket v's refs from slice t go to pos[v] on, after every ref of the
// buckets below v and after bucket v's refs from the slices before t.
// slice[v] is the slice pos[v] lies in. It appends to crossed each of
// t's buckets whose refs run past that slice's end — one a slice
// boundary at most, as the buckets' refs from all slices tile the output.
func (r *parallelRadix) offsets(g, t int, pos []uint32, slice []uint8, crossed []span) []span {
	below := pos
	var total [1 << refDigitBits]uint32
	clear(below)
	for u := 0; u < r.slices; u++ {
		h := r.hists(g, u)
		for s := 0; s < r.slices; s++ {
			hs := h[s<<refDigitBits:][:len(pos)]
			if s < t {
				for v, c := range hs {
					below[v] += c
				}
			}
			for v, c := range hs {
				total[v] += c
			}
		}
	}
	var run uint32
	s := 0
	for v := range pos {
		p, n := run+below[v], total[v]
		pos[v] = p
		// Positions only grow with v, so the slice does too.
		for s < r.slices-1 && int(p) >= r.bounds[s+1] {
			s++
		}
		slice[v] = uint8(s)
		if end := int(run + n); end > r.bounds[s+1] {
			// The bucket crosses a boundary: do t's refs of it?
			var mine uint32
			for u := 0; u < r.slices; u++ {
				mine += r.hists(g, u)[t<<refDigitBits+v]
			}
			if hi := int(p + mine); hi > r.bounds[s+1] {
				crossed = append(crossed, span{slice: s, hi: hi})
			}
		}
		run += n
	}
	return crossed
}

// groupStart is where slice t's part of the walk begins: at the slice's
// start, moved past the refs of a group that began in the slice before.
// It reads that group, so every cut is made before any group is sorted.
func (r *parallelRadix) groupStart(src []NormRef, t int, low uint) int {
	a := r.bounds[t]
	for a > 0 && a < len(src) && (src[a].Norm^src[a-1].Norm)>>low == 0 {
		a++
	}
	return a
}
