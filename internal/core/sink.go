package core

import (
	"cmp"
	"fmt"
	"math"
	"sync"

	"pgxsort/internal/comm"
	"pgxsort/internal/datamgr"
	"pgxsort/internal/lsort"
)

// exchangeSink is where one node's exchange lands and what step 6 runs
// over: the exchange loop writes every source's run into it, a KData
// message at a time (entries, or a sort by ref's refs), then exactly one
// of merge and discard consumes it. merge produces the node's sorted
// part; discard abandons a sink whose merge will never run (a failure
// during or after the exchange). Either way the sink gives back
// everything it holds — pooled slabs, tracker-accounted temporary memory,
// a scratch file — so an error exit cannot leak into later sorts on the
// same engine.
//
// There are two implementations, chosen by newExchangeSink from what the
// sort observes: residentSink when the assembled runs fit
// Options.MemoryBudget, spilledSink when they do not. Both merges are
// stable and take the runs in source order, so ties keep origin-processor
// order and the two produce the same entries in the same order.
type exchangeSink[K any] interface {
	Write(m comm.Message[K]) error
	RunComplete(src int) bool
	merge() ([]comm.Entry[K], error)
	discard()
}

// newExchangeSink picks the sink for an exchange that will deliver
// perSrc[i] entries from source i. The choice weighs entries whatever the
// sort carries: the result is entries either way. A resident share of
// more entries than a ref's uint32 position can address is refused here,
// as step 1 refuses such a share, before any slab is taken.
func (s *sortRun[K]) newExchangeSink(perSrc []int) (exchangeSink[K], error) {
	n := s.node
	total := 0
	for _, c := range perSrc {
		total += c
	}
	if budget := s.opts.MemoryBudget; budget > 0 && int64(total)*int64(entryBytes[K]()) > budget {
		sp, err := datamgr.NewSpillAssembly(n.dm, perSrc, s.codec, n.eng.scratch)
		if err != nil {
			return nil, err
		}
		return &spilledSink[K]{SpillAssembly: sp, s: s}, nil
	}
	if uint64(total) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d entries to assemble on one node", ErrShareTooLarge, total)
	}
	f := &s.runs
	r := &residentSink[K]{Regions: datamgr.NewRegions(perSrc), s: s, refs: f.takeRefs(total)}
	if s.byRef {
		r.prov = f.takeProv(total)
	} else {
		r.entries = f.take(total)
	}
	return r, nil
}

// residentSink assembles the runs in memory at precomputed offsets and
// merges them with the paper's balanced merging handler (Figure 2) after
// the exchange barrier. Whatever the sort carries, what lands is one
// (norm, position) ref a position, and beside it what the ref stands for:
// a sort by ref's provenance word (origin node << 32 | origin index), 24
// bytes a position, or every other sort's entry, 40 + 16.
type residentSink[K cmp.Ordered] struct {
	*datamgr.Regions
	s *sortRun[K]

	refs    []lsort.NormRef // (norm, position), one a position
	prov    []uint64        // a sort by ref's
	entries []comm.Entry[K] // every other sort's
}

// Write lands one chunk at the positions it claims: a ref is rewritten
// to address its position, its origin kept beside it; an entry is copied
// and its ref written from its key.
func (r *residentSink[K]) Write(m comm.Message[K]) error {
	at, err := r.Claim(m.Src, m.DataLen())
	if err != nil {
		return err
	}
	refs := r.refs[at : at+m.DataLen()]
	if r.s.byRef {
		src := uint64(m.Src) << 32
		for i, ref := range m.Refs {
			refs[i] = lsort.NormRef{Norm: ref.Norm, Idx: uint32(at + i)}
			r.prov[at+i] = src | uint64(ref.Idx)
		}
		return nil
	}
	copy(r.entries[at:], m.Entries)
	norm := r.s.runs.cmps.norm
	for i := range m.Entries {
		refs[i] = lsort.NormRef{Norm: norm(m.Entries[i].Key), Idx: uint32(at + i)}
	}
	return nil
}

// merge is step 6 over the assembled runs: the refs merged as step 1
// sorts them, then one pass that writes the result in the merged order.
//
// Each source's region is a sorted ref run, positions ascend from one run
// to the next and every merge and split is left-run-first, so equal
// norms leave in position order — source order, then arrival order,
// which is what the stable entry merge produces. An inexact norm has its
// equal-norm runs finished under the real keys, as in step 1.
//
// The result is allocated at its exact size. The merge takes a second ref
// slab and gives back the one it did not finish in before the result
// exists: over entries that is 40 + 32 B an entry while merging and
// 40 + 16 + 40 while gathering; by ref 24 + 16 while merging and 24 + 40
// while the result is written. Every slab returns to its pool on every
// exit.
func (r *residentSink[K]) merge() ([]comm.Entry[K], error) {
	defer r.discard()
	bounds := r.Bounds()
	total := bounds[len(bounds)-1]
	nonEmpty := 0
	for i := 1; i < len(bounds); i++ {
		if bounds[i] > bounds[i-1] {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		return nil, nil
	}
	f := &r.s.runs
	if nonEmpty > 1 {
		spare := f.takeRefs(total)
		defer func() { f.giveRefs(spare) }()
		order, fromSpare := lsort.MergeNormRefRuns(r.refs, spare, bounds, true)
		if fromSpare {
			r.refs, spare = spare, r.refs
		}
		f.giveRefs(spare)
		spare = nil
		if f.cmps.inexact {
			lsort.SortEqualNormRefs(order, func(i, j uint32) bool { return r.entries[i].Key < r.entries[j].Key })
		}
	}

	resultBytes := int64(total) * int64(entryBytes[K]())
	f.tracker.Alloc(resultBytes) // temporary while it is being filled
	defer f.tracker.Free(resultBytes)
	out := make([]comm.Entry[K], total)
	if r.s.byRef {
		f.split(total, func(lo, hi int) { refEntries(out, r.refs, r.prov, f.cmps.denorm, lo, hi) })
	} else {
		f.split(total, func(lo, hi int) { gatherEntries(out, r.entries, r.refs, lo, hi) })
	}
	return out, nil
}

// split runs fn over [0, total), in two halves when there is a second
// worker and the handoff is worth it: one helper goroutine takes the
// upper half, the caller the lower (a goroutine per worker costs more
// allocations than the sort has to spare). It returns once both are done,
// a panic on the caller's side included.
func (f *runFormer[K]) split(total int, fn func(lo, hi int)) {
	mid := total
	if f.workers > 1 && total >= 1<<12 {
		mid = total / 2
	}
	var helper sync.WaitGroup
	defer helper.Wait()
	if mid < total {
		helper.Add(1)
		go func() {
			defer helper.Done()
			fn(mid, total)
		}()
	}
	fn(0, mid)
}

// gatherEntries writes out[j] = buf[order[j].Idx] for lo <= j < hi.
func gatherEntries[K any](out, buf []comm.Entry[K], order []lsort.NormRef, lo, hi int) {
	for j := lo; j < hi; j++ {
		out[j] = buf[order[j].Idx]
	}
}

// refEntries writes out[j], for lo <= j < hi, as the entry order[j]
// stands for: its key is the norm's inverse, its origin the provenance
// word at the ref's position.
func refEntries[K any](out []comm.Entry[K], order []lsort.NormRef, prov []uint64, denorm func(uint64) K, lo, hi int) {
	for j := lo; j < hi; j++ {
		ref := order[j]
		origin := prov[ref.Idx]
		out[j] = comm.Entry[K]{Key: denorm(ref.Norm), Proc: uint32(origin >> 32), Index: uint32(origin)}
	}
}

// discard gives back whatever the sink still holds.
func (r *residentSink[K]) discard() {
	f := &r.s.runs
	f.giveRefs(r.refs)
	f.giveProv(r.prov)
	f.give(r.entries)
	r.refs, r.prov, r.entries = nil, nil, nil
}

// spilledSink lands every source's run in one scratch file and merges
// them back through streaming cursors, so the assembled runs are never
// resident; the merged part is the only resident output.
type spilledSink[K cmp.Ordered] struct {
	*datamgr.SpillAssembly[K]
	s *sortRun[K]
}

// Write appends one chunk to its source's run: a sort by ref's refs go
// on disk as the key-only entries they stand for, written straight from
// the refs, so the runs are what the entry path writes.
func (sp *spilledSink[K]) Write(m comm.Message[K]) error {
	if m.Refs != nil {
		return sp.WriteRefs(m.Src, m.Refs)
	}
	return sp.SpillAssembly.Write(m.Src, m.Entries)
}

// merge streams the source runs back through the former's merge — one
// cursor per source, an empty one for sources that sent nothing, so
// tie-breaking by cursor index stays source order — straight into the
// result, allocated at its exact size as the resident sink's is.
// Temporary memory is just the decoded blocks — one slab per non-empty
// source — and the merge's ref slab, however large the runs are. The scratch file goes
// back to the engine on every path.
func (sp *spilledSink[K]) merge() ([]comm.Entry[K], error) {
	defer sp.Close()
	s := sp.s
	s.runs.spillBytes.Add(sp.SpillBytes())
	merged := make([]comm.Entry[K], sp.Total())
	if err := s.runs.mergeInto(merged, sp.Runs()); err != nil {
		return nil, err
	}
	return merged, nil
}

func (sp *spilledSink[K]) discard() { sp.Close() }
