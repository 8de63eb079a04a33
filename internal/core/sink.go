package core

import (
	"cmp"

	"pgxsort/internal/comm"
	"pgxsort/internal/datamgr"
	"pgxsort/internal/lsort"
)

// exchangeSink is where one node's exchange lands and what step 6 runs
// over: the exchange loop writes every source's run into it, then exactly
// one of merge and discard consumes it. merge produces the node's sorted
// part; discard abandons a sink whose merge will never run (a failure
// during or after the exchange). Either way the sink gives back everything
// it holds — pooled slabs, tracker-accounted temporary memory, run files —
// so an error exit cannot leak into later sorts on the same engine.
//
// There are two implementations, chosen by newExchangeSink from what the
// sort observes: residentSink when the assembled runs fit
// Options.MemoryBudget, spilledSink when they do not. Both merges are
// stable and take the runs in source order, so ties keep origin-processor
// order and the two produce the same entries in the same order.
type exchangeSink[K any] interface {
	Write(src int, chunk []comm.Entry[K]) error
	RunComplete(src int) bool
	merge() ([]comm.Entry[K], error)
	discard()
}

// newExchangeSink picks the sink for an exchange that will deliver
// perSrc[i] entries from source i.
func (s *sortRun[K]) newExchangeSink(perSrc []int) (exchangeSink[K], error) {
	n := s.node
	eb := entryBytes[K]()
	total := 0
	for _, c := range perSrc {
		total += c
	}
	if budget := s.opts.MemoryBudget; budget > 0 && int64(total)*int64(eb) > budget {
		dir, err := s.runs.scratchDir()
		if err != nil {
			return nil, err
		}
		sp, err := datamgr.NewSpillAssembly(n.dm, perSrc, s.codec, dir)
		if err != nil {
			return nil, err
		}
		return &spilledSink[K]{SpillAssembly: sp, s: s}, nil
	}
	asm := datamgr.NewAssemblyBuf[K](n.dm, perSrc, eb, n.entryPool.Get(total))
	return &residentSink[K]{Assembly: asm, s: s}, nil
}

// residentSink assembles the runs in one pooled buffer at precomputed
// offsets and merges them with the paper's balanced merging handler
// (Figure 2) after the exchange barrier.
type residentSink[K cmp.Ordered] struct {
	*datamgr.Assembly[K]
	s *sortRun[K]
}

// merge runs the balanced handler over the assembled runs. The scratch
// comes from the node's slab pool; whichever of the assembly buffer and
// the scratch does not end up backing the result is recycled immediately
// (the result itself becomes resident storage and leaves the pool for
// good).
func (r *residentSink[K]) merge() ([]comm.Entry[K], error) {
	n := r.s.node
	buf := r.Entries()
	tmp := int64(len(buf)) * int64(entryBytes[K]())
	scratch := n.entryPool.Get(len(buf))
	n.tracker.Alloc(tmp)
	merged, fromScratch := lsort.MergeAdjacentRunsOwned(buf, scratch, r.Bounds(), r.s.cmps.entryLess, true)
	n.tracker.Free(tmp)
	r.Release()
	// Explicit ownership from the merge, not a base-pointer compare
	// (which has no element to address on empty results): exactly one
	// of buf/scratch backs the result and the other is recycled — and
	// an empty result frees both, since nothing aliases either.
	switch {
	case len(merged) == 0:
		n.entryPool.Put(buf)
		n.entryPool.Put(scratch)
		merged = nil
	case fromScratch:
		n.entryPool.Put(buf)
	default:
		n.entryPool.Put(scratch)
	}
	return merged, nil
}

func (r *residentSink[K]) discard() {
	r.Release()
	r.s.node.entryPool.Put(r.Entries())
}

// spilledSink lands each source's run in its own block file and merges
// them back through streaming cursors, so the assembled runs are never
// resident.
type spilledSink[K cmp.Ordered] struct {
	*datamgr.SpillAssembly[K]
	s *sortRun[K]
}

// merge streams the source runs back through the former's merge — one
// cursor per source, an empty one for sources that sent nothing, so
// tie-breaking by cursor index stays source order — straight into the
// result buffer. Temporary memory is just the decoded-ahead blocks — two
// slabs per non-empty source — however large the runs are. mergeInto
// removes the run files on every path, which is all Close would do for
// an assembly whose runs are all sealed.
func (sp *spilledSink[K]) merge() ([]comm.Entry[K], error) {
	s := sp.s
	s.runs.spillBytes.Add(sp.SpillBytes())
	merged := s.node.entryPool.Get(sp.Total())
	if err := s.runs.mergeInto(merged, sp.Paths()); err != nil {
		s.node.entryPool.Put(merged)
		return nil, err
	}
	return merged, nil
}

func (sp *spilledSink[K]) discard() { sp.Close() }
