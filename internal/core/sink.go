package core

import (
	"cmp"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"pgxsort/internal/comm"
	"pgxsort/internal/datamgr"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
)

// exchangeSink is where one node's exchange lands and what step 6 runs
// over: the exchange loop writes every source's run into it, a KData
// message at a time (entries, or a sort by ref's refs), then exactly one
// of merge and discard consumes it. merge produces the node's sorted
// part, as entries or — a key-column job — as keys; discard abandons a
// sink whose merge will never run (a failure
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
type exchangeSink[K cmp.Ordered] interface {
	Write(m comm.Message[K]) error
	RunComplete(src int) bool
	merge() (sortedPart[K], error)
	discard()
}

// sortedPart is one node's sorted part as step 6 leaves it: its entries,
// or on a key-column job (sortRun.keys) its keys alone.
type sortedPart[K cmp.Ordered] struct {
	entries []comm.Entry[K]
	keys    []K
}

func (p sortedPart[K]) len() int { return len(p.entries) + len(p.keys) }

// bytes is what the part holds resident: an entry or a key a position.
func (p sortedPart[K]) bytes() int64 {
	var k K
	return int64(len(p.entries))*int64(entryBytes[K]()) + int64(len(p.keys))*int64(unsafe.Sizeof(k))
}

// newExchangeSink picks the sink for an exchange that will deliver
// perSrc[i] entries from source i. The counts come from the peers' range
// metadata and are checked once, before either sink takes a slab or a
// scratch file: a negative one is an error. The choice weighs a position
// as what the resident merge holds at its peak (residentSink.merge): what
// lands — a ref, and beside it a sort by entry's entry — plus the larger
// of the merge's second ref and the part's entry. A key-column job's part
// is weighed as entries too, so a job spills the runs a sort of the same
// keys spills. A resident share of more entries than a ref's uint32
// position can address is refused here, as step 1 refuses such a share.
func (s *sortRun[K]) newExchangeSink(perSrc []int) (exchangeSink[K], error) {
	total := 0
	for src, c := range perSrc {
		if c < 0 {
			return nil, fmt.Errorf("range metadata from %d announces %d entries", src, c)
		}
		total += c
	}
	regions := datamgr.NewRegions(perSrc)
	eb := int64(entryBytes[K]())
	held := refBytes + max(refBytes, eb)
	if !s.byRef {
		held += eb
	}
	if budget := s.opts.MemoryBudget; budget > 0 && int64(total)*held > budget {
		scratch, err := s.node.eng.scratch.Take()
		if err != nil {
			return nil, err
		}
		sp := &spilledSink[K]{Regions: regions, s: s, scratch: scratch, writers: make([]*spill.Writer[K], len(perSrc))}
		for src, c := range perSrc {
			if c > 0 {
				sp.writers[src] = spill.NewRunWriter(scratch, s.codec, 0)
			}
		}
		return sp, nil
	}
	if uint64(total) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d entries to assemble on one node", ErrShareTooLarge, total)
	}
	f := &s.runs
	r := &residentSink[K]{Regions: regions, s: s, refs: f.takeRefs(total)}
	if !s.byRef {
		r.entries = f.take(total)
	}
	return r, nil
}

// residentSink assembles the runs in memory at precomputed offsets and
// merges them with the paper's balanced merging handler (Figure 2) after
// the exchange barrier. Whatever the sort carries, what lands is one
// 16-byte ref a position. A sort by ref's refs are the key-only entries
// they stand for (norm, origin node, origin index) and land as they are;
// every other sort's entry lands beside a (norm, position) ref written
// from its key, 40 + 16 bytes a position.
type residentSink[K cmp.Ordered] struct {
	*datamgr.Regions
	s *sortRun[K]

	refs    []lsort.NormRef // one a position
	entries []comm.Entry[K] // every sort's but a sort by ref's
	// taken is set once the merge has moved every payload out of
	// entries, so the slab goes back without the pool's clear.
	taken bool
}

// Write lands one chunk at the positions it claims: refs are copied as
// they are; an entry is copied and its ref written from its key.
func (r *residentSink[K]) Write(m comm.Message[K]) error {
	at, err := r.Claim(m.Src, m.DataLen())
	if err != nil {
		return err
	}
	if r.s.byRef {
		copy(r.refs[at:], m.Refs)
		return nil
	}
	copy(r.entries[at:], m.Entries)
	refs, norm := r.refs[at:at+len(m.Entries)], r.s.runs.cmps.norm
	for i := range m.Entries {
		refs[i] = lsort.NormRef{Norm: norm(m.Entries[i].Key), Idx: uint32(at + i)}
	}
	return nil
}

// merge is step 6 over the assembled runs: the refs merged as step 1
// sorts them, then one pass that writes the part in the merged order.
//
// Each source's region is a sorted ref run, the runs lie in source
// order and every merge and split is left-run-first, so equal norms
// leave in position order — source order, then arrival order, which is
// what the stable entry merge produces; no tie is broken by Proc or Idx.
// An inexact norm has its equal-norm runs finished under the real keys
// (entries, never a sort by ref), as in step 1.
//
// The part is allocated at its exact size: entries, or a key-column
// job's keys. The merge takes a second ref slab and gives back the one it
// did not finish in before the part exists: over entries that is 40 + 32
// B an entry while merging and 40 + 16 + 40 while the entries are
// gathered (40 + 16 + 8 for keys); by ref 16 + 16 while merging and
// 16 + 40 while the entries are written (16 + 8 for keys). Every slab
// returns to its pool on every exit.
func (r *residentSink[K]) merge() (sortedPart[K], error) {
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
		return sortedPart[K]{}, nil
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

	order, denorm := r.refs, f.cmps.denorm
	switch {
	case r.s.keys && r.s.byRef:
		return sortedPart[K]{keys: fill(f, total, func(out []K, lo, hi int) { refKeys(out, order, denorm, lo, hi) })}, nil
	case r.s.keys:
		return sortedPart[K]{keys: fill(f, total, func(out []K, lo, hi int) { gatherKeys(out, r.entries, order, lo, hi) })}, nil
	case r.s.byRef:
		return sortedPart[K]{entries: fill(f, total, func(out []comm.Entry[K], lo, hi int) { refEntries(out, order, denorm, lo, hi) })}, nil
	default:
		take := f.pool.Clear
		part := fill(f, total, func(out []comm.Entry[K], lo, hi int) { gatherEntries(out, r.entries, order, take, lo, hi) })
		r.taken = take
		return sortedPart[K]{entries: part}, nil
	}
}

// fill allocates a part of n elements — entries or keys — and writes it
// with write, in two halves when there is a second worker and the handoff
// is worth it: one helper goroutine takes the upper half, the caller the
// lower (a goroutine per worker costs more allocations than the sort has
// to spare). It returns once both are done, a panic on the caller's side
// included. The part is temporary memory of the node's while it is being
// filled.
func fill[K cmp.Ordered, E any](f *runFormer[K], n int, write func(out []E, lo, hi int)) []E {
	var e E
	partBytes := int64(n) * int64(unsafe.Sizeof(e))
	f.tracker.Alloc(partBytes)
	defer f.tracker.Free(partBytes)
	out := make([]E, n)
	mid := n
	if f.workers > 1 && n >= 1<<12 {
		mid = n / 2
	}
	var helper sync.WaitGroup
	defer helper.Wait()
	if mid < n {
		helper.Add(1)
		go func() {
			defer helper.Done()
			write(out, mid, n)
		}()
	}
	write(out, 0, mid)
	return out
}

// gatherEntries writes out[j] = buf[order[j].Idx] for lo <= j < hi; with
// take — when buf's pool would clear it — a record's payload leaves buf
// as it is gathered, while the entry's line is in cache, where the
// pool's clear of buf would read it all again.
func gatherEntries[K any](out, buf []comm.Entry[K], order []lsort.NormRef, take bool, lo, hi int) {
	for j := lo; j < hi; j++ {
		e := &buf[order[j].Idx]
		out[j] = *e
		if take {
			e.Payload = nil
		}
	}
}

// gatherKeys writes out[j] = buf[order[j].Idx].Key for lo <= j < hi.
func gatherKeys[K any](out []K, buf []comm.Entry[K], order []lsort.NormRef, lo, hi int) {
	for j := lo; j < hi; j++ {
		out[j] = buf[order[j].Idx].Key
	}
}

// refEntries writes out[j], for lo <= j < hi, as the key-only entry
// order[j] stands for: its key is the norm's inverse, its origin the
// ref's own.
func refEntries[K any](out []comm.Entry[K], order []lsort.NormRef, denorm func(uint64) K, lo, hi int) {
	for j := lo; j < hi; j++ {
		ref := order[j]
		out[j] = comm.Entry[K]{Key: denorm(ref.Norm), Proc: ref.Proc, Index: ref.Idx}
	}
}

// refKeys writes out[j] as the key order[j] stands for, the norm's
// inverse, for lo <= j < hi.
func refKeys[K any](out []K, order []lsort.NormRef, denorm func(uint64) K, lo, hi int) {
	for j := lo; j < hi; j++ {
		out[j] = denorm(order[j].Norm)
	}
}

// discard gives back whatever the sink still holds.
func (r *residentSink[K]) discard() {
	f := &r.s.runs
	f.giveRefs(r.refs)
	if r.taken {
		f.tracker.Free(int64(len(r.entries)) * int64(entryBytes[K]()))
		f.pool.PutAsIs(r.entries) // gatherEntries took its payloads
	} else {
		f.give(r.entries)
	}
	r.refs, r.entries = nil, nil
}

// spilledSink lands every source's run in one scratch file, taken from
// the engine's spill.ScratchPool, and merges them back through streaming
// cursors, so the assembled runs are never resident; the merged part is
// the only resident output. It lays the sources out by the same Regions
// as the resident sink, and each non-empty source streams through its
// own spill.Writer, a block at a time: sources write concurrently, as
// the scratch gives every block its own offset, and an open source holds
// its writer's one block buffer and nothing per entry.
type spilledSink[K cmp.Ordered] struct {
	*datamgr.Regions
	s       *sortRun[K]
	scratch *spill.Scratch     // nil once given back
	writers []*spill.Writer[K] // nil for sources expecting nothing
}

// Write appends one chunk to its source's run, sealing the run once its
// expected count has landed. A sort by ref's refs go on disk as the
// key-only entries they stand for, written straight from the refs, so the
// runs are what the entry path writes.
func (sp *spilledSink[K]) Write(m comm.Message[K]) error {
	n := m.DataLen()
	at, err := sp.Claim(m.Src, n)
	if err != nil {
		return err
	}
	w := sp.writers[m.Src]
	if w == nil {
		// A source expecting nothing has no run; the only chunk that can
		// reach it is an empty one (a node's own empty range).
		return nil
	}
	if m.Refs != nil {
		err = w.AppendRefs(m.Refs)
	} else {
		err = w.Append(m.Entries)
	}
	if err == nil && at+n == sp.Bounds()[m.Src+1] {
		err = w.Finish()
	}
	return err
}

// merge streams the source runs back through the former's one merge —
// one cursor per source, an empty one for sources that sent nothing, so
// tie-breaking by cursor index stays source order — into the part,
// allocated at its exact size as the resident sink's is. A sort by ref
// reads source i's run back as the refs node i sent, merged a batch of
// runBatch refs at a time, each batch written into the part as the
// key-only entries (refEntries) or the keys (refKeys) its refs stand for:
// it takes ref slabs only, 16 bytes a ref, and no entry slab. Any other
// sort reads entries: merged straight into the part's entries, or for a
// key-column job a batch of runBatch entries at a time whose keys are
// copied out, so no entry slab the part's size is ever made. Temporary
// memory is just the decoded blocks — one slab per non-empty source — the
// merge's ref slab and the batch, however large the runs are. The scratch
// file goes back to the engine on every path.
func (sp *spilledSink[K]) merge() (sortedPart[K], error) {
	defer sp.discard()
	f := &sp.s.runs
	runs := make([]spill.Run, len(sp.writers))
	for src, w := range sp.writers {
		if w != nil {
			f.spillBytes.Add(w.BytesWritten())
			runs[src] = w.Run()
		}
	}
	bounds := sp.Bounds()
	total := bounds[len(bounds)-1]
	var part sortedPart[K]
	if sp.s.keys {
		part.keys = make([]K, total)
	} else {
		part.entries = make([]comm.Entry[K], total)
	}
	var err error
	if sp.s.byRef {
		batch := f.takeRefs(runBatch)
		defer f.giveRefs(batch)
		denorm := f.cmps.denorm
		fromSource := func(src int) uint32 { return uint32(src) }
		err = mergeRuns(f, runs, openRefs(f, f.codec, fromSource), refNorm, nil, batch, total, func(out []lsort.NormRef, at int) error {
			if sp.s.keys {
				refKeys(part.keys[at:], out, denorm, 0, len(out))
			} else {
				refEntries(part.entries[at:], out, denorm, 0, len(out))
			}
			return nil
		})
	} else {
		batch := part.entries // the part is the merge's one batch, filled in place
		if sp.s.keys {
			batch = f.take(runBatch)
			defer f.give(batch)
		}
		err = mergeRuns(f, runs, f.openEntries, f.cmps.headNorm, f.cmps.headLess, batch, total, func(out []comm.Entry[K], at int) error {
			if sp.s.keys {
				for i := range out {
					part.keys[at+i] = out[i].Key
				}
			} else if &out[0] != &part.entries[at] {
				copy(part.entries[at:], out)
			}
			return nil
		})
	}
	if err != nil {
		return sortedPart[K]{}, err
	}
	return part, nil
}

// discard lets go of every unsealed writer's block buffer and gives the
// scratch file back, once however often it is called, and at any point
// once no reader of the runs is open.
func (sp *spilledSink[K]) discard() {
	for _, w := range sp.writers {
		if w != nil {
			w.Abort()
		}
	}
	sp.s.node.eng.scratch.Give(sp.scratch)
	sp.scratch = nil
}
