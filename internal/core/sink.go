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
// sort carries: the result is entries either way.
func (s *sortRun[K]) newExchangeSink(perSrc []int) (exchangeSink[K], error) {
	n := s.node
	eb := entryBytes[K]()
	total := 0
	for _, c := range perSrc {
		total += c
	}
	if budget := s.opts.MemoryBudget; budget > 0 && int64(total)*int64(eb) > budget {
		sp, err := datamgr.NewSpillAssembly(n.dm, perSrc, s.codec, n.eng.scratch)
		if err != nil {
			return nil, err
		}
		return &spilledSink[K]{SpillAssembly: sp, s: s}, nil
	}
	if s.byRef {
		f := &s.runs
		return &residentSink[K]{Regions: datamgr.NewRegions(perSrc), s: s,
			refs: f.takeRefs(total), prov: f.takeProv(total)}, nil
	}
	asm := datamgr.NewAssemblyBuf[K](n.dm, perSrc, eb, n.entryPool.Get(total))
	return &residentSink[K]{Regions: &asm.Regions, asm: asm, s: s}, nil
}

// residentSink assembles the runs in memory at precomputed offsets and
// merges them with the paper's balanced merging handler (Figure 2) after
// the exchange barrier. Entries land in one pooled assembly buffer; a
// sort by ref's refs land as one (norm, position) ref and one provenance
// word (origin node << 32 | origin index) per position, 24 bytes against
// an entry's 40.
type residentSink[K cmp.Ordered] struct {
	*datamgr.Regions
	s *sortRun[K]

	asm  *datamgr.Assembly[K] // entries; nil on a sort by ref
	refs []lsort.NormRef      // a sort by ref's, and step 6's over entries
	prov []uint64             // a sort by ref's
}

// Write lands one chunk: entries are copied into the assembly, refs are
// rewritten to address their position, their origin kept beside them.
func (r *residentSink[K]) Write(m comm.Message[K]) error {
	if r.asm != nil {
		return r.asm.Write(m.Src, m.Entries)
	}
	at, err := r.Claim(m.Src, len(m.Refs))
	if err != nil {
		return err
	}
	src := uint64(m.Src) << 32
	for i, ref := range m.Refs {
		r.refs[at+i] = lsort.NormRef{Norm: ref.Norm, Idx: uint32(at + i)}
		r.prov[at+i] = src | uint64(ref.Idx)
	}
	return nil
}

// merge is step 6 over the assembled runs: one ref per entry — built
// from the assembly, or already there on a sort by ref — merged as step 1
// sorts them, then one pass that writes the result in the merged order.
// With at most one source that sent anything there is nothing to merge,
// and an assembly buffer is the result as it is. An assembly of more
// entries than a ref's uint32 position can address is refused, as step 1
// refuses such a share.
//
// Each source's region is a sorted ref run, positions ascend from one run
// to the next and every merge and split is left-run-first, so equal
// norms leave in position order — source order, then arrival order,
// which is what the stable entry merge produces. An inexact norm has its
// equal-norm runs finished under the real keys, as in step 1.
//
// The result is allocated at its exact size. Over entries the two ref
// halves are separate slabs so the spare one is back in the pool before
// the result exists: 40 + 32 B an entry while merging, 40 + 16 + 40 while
// gathering. By ref it is 24 + 16 while merging and 24 + 40 while the
// result is written. The assembly buffer and every ref and provenance
// slab return to their pools on every exit.
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
	switch {
	case nonEmpty == 0:
		return nil, nil
	case nonEmpty == 1 && r.asm != nil:
		r.asm.Release() // the buffer leaves the pool as resident result storage
		buf := r.asm.Entries()
		r.asm = nil
		return buf, nil
	case uint64(total) > math.MaxUint32:
		return nil, fmt.Errorf("%w: %d entries assembled on one node", ErrShareTooLarge, total)
	}
	f := &r.s.runs
	var buf []comm.Entry[K]
	if r.asm != nil {
		buf = r.asm.Entries()
		r.refs = f.takeRefs(total)
	}
	var spare []lsort.NormRef
	if nonEmpty > 1 {
		spare = f.takeRefs(total)
		defer func() { f.giveRefs(spare) }()
	}
	if r.asm != nil {
		f.split(total, func(lo, hi int) { entryRefs(r.refs, buf, f.cmps.norm, lo, hi) })
	}
	if spare != nil {
		order, fromSpare := lsort.MergeNormRefRuns(r.refs, spare, bounds, true)
		if fromSpare {
			r.refs, spare = spare, r.refs
		}
		f.giveRefs(spare)
		spare = nil
		if f.cmps.inexact {
			lsort.SortEqualNormRefs(order, func(i, j uint32) bool { return buf[i].Key < buf[j].Key })
		}
	}

	resultBytes := int64(total) * int64(entryBytes[K]())
	f.tracker.Alloc(resultBytes) // temporary while it is being filled
	defer f.tracker.Free(resultBytes)
	out := make([]comm.Entry[K], total)
	if r.asm != nil {
		f.split(total, func(lo, hi int) { gatherEntries(out, buf, r.refs, lo, hi) })
	} else {
		f.split(total, func(lo, hi int) { refEntries(out, r.refs, r.prov, f.cmps.denorm, lo, hi) })
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
	if r.asm != nil {
		r.asm.Release()
		r.s.node.entryPool.Put(r.asm.Entries())
		r.asm = nil
	}
	if r.refs != nil {
		f.giveRefs(r.refs)
		r.refs = nil
	}
	if r.prov != nil {
		f.giveProv(r.prov)
		r.prov = nil
	}
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
