package datamgr

import (
	"fmt"

	"pgxsort/internal/comm"
	"pgxsort/internal/spill"
)

// SpillAssembly is Assembly's out-of-core sibling: instead of landing
// peer chunks in one resident buffer at precomputed offsets, each
// source's run streams through its own spill.Writer into one scratch
// file the sources share, taken from the engine's spill.ScratchPool,
// block by block as they fill. The contract is otherwise identical — the
// same Regions bookkeeping, per-source chunks arrive FIFO and append in
// order, different sources may write concurrently (each owns its writer;
// the scratch hands every block its own offset), and RunComplete turns
// true the moment a source's expected count lands. The final merge then
// reads the runs back (Runs) instead of in-memory regions.
type SpillAssembly[K any] struct {
	Regions
	pool    *spill.ScratchPool
	scratch *spill.Scratch     // nil once given back
	writers []*spill.Writer[K] // nil for sources expecting zero entries
}

// NewSpillAssembly takes the assembly's scratch file from pool and
// starts one run in it per non-empty source. Unlike NewAssembly there is
// no tracker accounting for the assembled entries — the entire point is
// that they are not resident: an open source holds its writer's one
// pooled block buffer (spill.DefaultBlockBytes of wire bytes, written raw
// the moment it fills) and nothing per entry.
func NewSpillAssembly[K any](m *Manager, perSrc []int, c comm.Codec[K], pool *spill.ScratchPool) (*SpillAssembly[K], error) {
	for src, n := range perSrc {
		if n < 0 {
			return nil, fmt.Errorf("datamgr: negative expected count %d from source %d", n, src)
		}
	}
	scratch, err := pool.Take()
	if err != nil {
		return nil, err
	}
	a := &SpillAssembly[K]{pool: pool, scratch: scratch, writers: make([]*spill.Writer[K], len(perSrc))}
	a.init(perSrc)
	for src, n := range perSrc {
		if n > 0 {
			a.writers[src] = spill.NewRunWriter(scratch, c, 0)
		}
	}
	return a, nil
}

// Write appends a chunk arriving from src to its run (Regions.Claim),
// sealing the run when the source's expected count lands. Same
// concurrency contract as Assembly.Write: per-source FIFO, cross-source
// concurrent.
func (a *SpillAssembly[K]) Write(src int, chunk []comm.Entry[K]) error {
	return a.land(src, len(chunk), func(w *spill.Writer[K]) error { return w.Append(chunk) })
}

// WriteRefs is Write for a chunk of refs from src: the key-only entries
// they stand for, origin src, go onto the run byte for byte as Write
// would put them, and no entry is built.
func (a *SpillAssembly[K]) WriteRefs(src int, refs []comm.NormRef) error {
	return a.land(src, len(refs), func(w *spill.Writer[K]) error { return w.AppendRefs(refs, uint32(src)) })
}

// land claims n elements of src's region and appends them to its run
// through put, sealing the run once its expected count has landed.
func (a *SpillAssembly[K]) land(src, n int, put func(*spill.Writer[K]) error) error {
	at, err := a.Claim(src, n)
	if err != nil {
		return err
	}
	w := a.writers[src]
	if w == nil {
		// A zero-count source has no run; the only chunk that can
		// reach it is an empty one (a node's own empty range, say), and
		// its run was already marked done at construction.
		return nil
	}
	if err := put(w); err != nil {
		return err
	}
	if at+n == a.Bounds()[src+1] {
		// Seal the run so readers can open it the moment the merge
		// wants it; a Finish failure surfaces like a write failure.
		return w.Finish()
	}
	return nil
}

// Total reports the summed expected entry count across sources.
func (a *SpillAssembly[K]) Total() int { return a.Bounds()[len(a.writers)] }

// SpillBytes reports the bytes written across all runs so far.
func (a *SpillAssembly[K]) SpillBytes() int64 {
	var total int64
	for _, w := range a.writers {
		if w != nil {
			total += w.BytesWritten()
		}
	}
	return total
}

// Runs reports each source's run, in source order (the empty Run for
// empty sources). A run is readable once RunComplete(src); the merge
// opens them all after the exchange.
func (a *SpillAssembly[K]) Runs() []spill.Run {
	runs := make([]spill.Run, len(a.writers))
	for src, w := range a.writers {
		if w != nil {
			runs[src] = w.Run()
		}
	}
	return runs
}

// Close lets go of every unsealed writer's block buffer and gives the
// scratch file back to its pool, every run in it done with. Safe to call
// multiple times and at any point once no reader of the runs is open:
// after the merge has consumed them, or on any abort path.
func (a *SpillAssembly[K]) Close() {
	for _, w := range a.writers {
		if w != nil {
			w.Abort()
		}
	}
	a.pool.Give(a.scratch)
	a.scratch = nil
}
