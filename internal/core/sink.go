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
// over: the exchange loop writes every source's run into it, then exactly
// one of merge and discard consumes it. merge produces the node's sorted
// part; discard abandons a sink whose merge will never run (a failure
// during or after the exchange). Either way the sink gives back everything
// it holds — pooled slabs, tracker-accounted temporary memory, a scratch
// file — so an error exit cannot leak into later sorts on the same engine.
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
		sp, err := datamgr.NewSpillAssembly(n.dm, perSrc, s.codec, s.opts.SpillDir)
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

// merge is step 6 over the assembled runs: one ref per entry, merged as
// step 1 sorts them (mergeRefs). With at most one source that sent
// anything there is nothing to merge and the assembly buffer is the
// result. An assembly of more entries than a ref's uint32 position can
// address is refused, as step 1 refuses such a share.
func (r *residentSink[K]) merge() ([]comm.Entry[K], error) {
	buf, bounds := r.Entries(), r.Bounds()
	nonEmpty := 0
	for i := 1; i < len(bounds); i++ {
		if bounds[i] > bounds[i-1] {
			nonEmpty++
		}
	}
	switch {
	case nonEmpty == 0:
		r.discard()
		return nil, nil
	case nonEmpty == 1:
		r.Release() // the buffer leaves the pool as resident result storage
		return buf, nil
	case uint64(len(buf)) > math.MaxUint32:
		r.discard()
		return nil, fmt.Errorf("%w: %d entries assembled on one node", ErrShareTooLarge, len(buf))
	}
	return r.mergeRefs(buf, bounds), nil
}

// mergeRefs never moves an entry to compare it: one (norm, position) ref
// per assembled entry, the balanced handler over the refs, one gather.
// Each source's region of the buffer is a sorted ref run, positions
// ascend from one run to the next and every merge and split is
// left-run-first, so equal norms leave in position order — source order,
// then arrival order, which is what the stable entry merge produces. An
// inexact norm has its equal-norm runs finished under the real keys, as
// in step 1.
//
// The two ref halves are separate slabs so the spare one is back in the
// pool before the result exists: 40 + 32 B an entry while merging,
// 40 + 16 + 40 while gathering. The result is allocated at its exact
// size, and the assembly buffer and both ref slabs return to their pools
// on every exit.
func (r *residentSink[K]) mergeRefs(buf []comm.Entry[K], bounds []int) []comm.Entry[K] {
	defer r.discard()
	f := &r.s.runs
	total := len(buf)
	refs, spare := f.takeRefs(total), f.takeRefs(total)
	var helper sync.WaitGroup
	defer func() {
		helper.Wait() // a panic on this side leaves the helper running over both
		f.giveRefs(refs)
		f.giveRefs(spare)
	}()
	// The two linear passes split in half when there is a second worker
	// and the handoff is worth it: one helper goroutine each, the caller
	// taking the lower half (a goroutine per worker costs more
	// allocations than the sort has to spare).
	mid := total
	if f.workers > 1 && total >= 1<<12 {
		mid = total / 2
	}
	if mid < total {
		helper.Add(1)
		go func(refs []lsort.NormRef) {
			defer helper.Done()
			entryRefs(refs, buf, f.cmps.norm, mid, total)
		}(refs)
	}
	entryRefs(refs, buf, f.cmps.norm, 0, mid)
	helper.Wait()

	order, fromSpare := lsort.MergeNormRefRuns(refs, spare, bounds, true)
	if f.cmps.inexact {
		lsort.SortEqualNormRefs(order, func(i, j uint32) bool { return buf[i].Key < buf[j].Key })
	}
	if fromSpare {
		refs, spare = spare, refs
	}
	f.giveRefs(spare)
	spare = nil

	resultBytes := int64(total) * int64(entryBytes[K]())
	f.tracker.Alloc(resultBytes) // temporary while it is being filled
	defer f.tracker.Free(resultBytes)
	out := make([]comm.Entry[K], total)
	if mid < total {
		helper.Add(1)
		go func() {
			defer helper.Done()
			gatherEntries(out, buf, order, mid, total)
		}()
	}
	gatherEntries(out, buf, order, 0, mid)
	helper.Wait()
	return out
}

// entryRefs writes refs[i] = (norm of buf[i].Key, i) for lo <= i < hi.
func entryRefs[K any](refs []lsort.NormRef, buf []comm.Entry[K], norm func(K) uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		refs[i] = lsort.NormRef{Norm: norm(buf[i].Key), Idx: uint32(i)}
	}
}

// gatherEntries writes out[j] = buf[order[j].Idx] for lo <= j < hi.
func gatherEntries[K any](out, buf []comm.Entry[K], order []lsort.NormRef, lo, hi int) {
	for j := lo; j < hi; j++ {
		out[j] = buf[order[j].Idx]
	}
}

func (r *residentSink[K]) discard() {
	r.Release()
	r.s.node.entryPool.Put(r.Entries())
}

// spilledSink lands every source's run in one scratch file and merges
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
// slabs per non-empty source — however large the runs are. The scratch
// file goes on every path; one that will not go fails the merge, because
// nothing else would ever say the disk is leaking.
func (sp *spilledSink[K]) merge() ([]comm.Entry[K], error) {
	s := sp.s
	defer sp.Close() // a panic's way out; every other closes it below
	s.runs.spillBytes.Add(sp.SpillBytes())
	merged := s.node.entryPool.Get(sp.Total())
	err := s.runs.mergeInto(merged, sp.Runs())
	if cerr := sp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.node.entryPool.Put(merged)
		return nil, err
	}
	return merged, nil
}

func (sp *spilledSink[K]) discard() { sp.Close() }
