package core

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
)

// This file is the fully out-of-core sort path: the input arrives as a
// spill run file (a streaming ingress landed it there) and the output
// leaves as a cursor (streaming egress), so neither the input nor the
// result is ever resident. Step 1 is the shared run former (runs.go) —
// each of the p nodes sorts its contiguous section of the input, here
// into budget-sized sorted chunk runs on disk — and the job collapses the
// exchange: instead of moving data to p owners and merging per owner,
// one bounded fan-in k-way merge streams all runs straight to the
// consumer. The exchange exists to move data between real machines; when
// the dataset lives on disk and the answer is leaving over a socket
// anyway, merging at egress is the classic external-merge-sort final
// pass and saves a full write+read of the dataset. The keys come out in
// the same total order every other path sorts under, so the canonical
// encoded bytes are identical to the resident pipeline's for the same
// key multiset.

const (
	// spoolMergeFanIn bounds how many runs one merge pass reads at once.
	// A k-way merge holds a couple of decoded block slabs per run, so
	// bounding k makes the merge's working set a fixed slack independent
	// of how many chunk runs the dataset produced; extra passes show up
	// honestly in SpillBytes/SpillReads.
	spoolMergeFanIn = 8
	// defaultSpoolChunkBytes stands in for the budget when no
	// MemoryBudget is set: spooled inputs still sort chunk at a time —
	// the point of the path is never holding the dataset.
	defaultSpoolChunkBytes = 32 << 20
	// minSpoolChunkEntries keeps pathological budgets from degenerating
	// into per-entry runs.
	minSpoolChunkEntries = 256
)

// spoolBlockBytes picks the block size for a spooled job's runs: small
// enough that a fan-in's worth of decoded block slabs stays a fraction
// of the budget, large enough that a block — one write, one read, stored
// raw — batches I/O. The size bounds a block's wire bytes, origin fields
// included, so its decoded slab is at most 40/16 of it for uint64 keys.
func spoolBlockBytes(budget int64) int {
	return int(min(max(budget/(4*spoolMergeFanIn), 4<<10), spill.DefaultBlockBytes))
}

// SpooledInput describes a dataset landed in a spill run file by a
// streaming ingress: entries in arrival order, any key order. The file
// must be a finished run holding at least N entries; it stays on disk
// (owned by the caller) across attempts, which is what makes spool-read
// failures retryable.
type SpooledInput struct {
	// Path is the finished spill run file.
	Path string
	// N is the entry count to sort (the ingress counted entries as they
	// streamed in).
	N int
	// ReadSite, when non-empty, names a failpoint hit before every input
	// batch read during run formation — the serve layer's
	// serve/spool-read fault-injection arm. Injected errors wrap
	// failpoint.ErrInjected and classify Transient: the spool file
	// persists, so a scheduler retry re-reads it cleanly.
	ReadSite string
}

// SpooledResult streams a spooled sort's output in sorted batches. It
// holds open run readers and their scratch file until Close, which gives
// the file back to the engine and folds the final I/O counters into
// Report. Batches follow the lsort.Cursor contract: valid only until the
// following Next.
type SpooledResult[K cmp.Ordered] struct {
	// N is the entry count the stream will yield.
	N int
	// Report carries the run's measurements. SpillReads, Total and
	// TempPeakBytes settle at Close, once the stream has drained.
	Report Report

	cur     lsort.Cursor[comm.Entry[K]]
	runs    *runFormer[K]
	start   time.Time
	done    func()             // releases the final merge's batch and readers
	scratch *spill.Scratch     // holds the runs the final merge reads
	pool    *spill.ScratchPool // where scratch goes back
	release func()             // frees the admission slot (RunOneSpooled)

	once sync.Once
}

// Next yields the next sorted batch; a zero-length batch means the
// stream is exhausted.
func (r *SpooledResult[K]) Next() ([]comm.Entry[K], error) {
	return r.cur.Next()
}

// Close releases readers, slabs, the scratch file and the admission
// slot, and settles Report. Idempotent; it cannot fail.
func (r *SpooledResult[K]) Close() error {
	r.once.Do(func() {
		r.done()
		r.pool.Give(r.scratch)
		r.Report.SpillReads = r.runs.spillReads.Load()
		r.Report.Total = time.Since(r.start)
		r.Report.TempPeakBytes = r.runs.tracker.Peak()
		r.Report.PerNode[0].TempPeakBytes = r.Report.TempPeakBytes
		if r.release != nil {
			r.release()
		}
	})
	return nil
}

// RunOneSpooled admits one spooled dataset through the scheduler's
// shared gates and runs it under the retry policy. The admission slot is
// held until the returned result is Closed — the stream holds engine
// scratch until then, and releasing early would let unbounded spooled
// streams pile up past the inflight cap. Retries cover failures during
// run formation and merge priming, before any output byte exists; an
// error mid-stream (from Next) is not retried, because output already
// left.
func (s *Scheduler[K]) RunOneSpooled(ctx context.Context, in SpooledInput) (*SpooledResult[K], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case s.gates.admit <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.noteAdmit(1)
	release := func() {
		s.noteAdmit(-1)
		<-s.gates.admit
	}
	var res *SpooledResult[K]
	// A jitter stream of its own, apart from every resident job's.
	attempts, err := s.retry(ctx, 0x5B007ED50127AB1E, func() (err error) {
		res, err = s.eng.SortSpooled(ctx, in)
		return err
	})
	if err != nil {
		release()
		return nil, err
	}
	res.Report.Attempts = attempts
	res.release = release
	return res, nil
}

// SortSpooled externally sorts a spooled input under the engine's memory
// budget, returning a streaming result. Temporary memory — chunk staging,
// sort refs, decoded block slabs — is tracker-accounted per job; the
// working set is O(chunk + fanIn·block) per node, independent of N.
func (e *Engine[K]) SortSpooled(ctx context.Context, in SpooledInput) (res *SpooledResult[K], err error) {
	if in.Path == "" || in.N < 0 {
		return nil, fmt.Errorf("core: bad spooled input (path %q, n %d)", in.Path, in.N)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := e.opts.Procs
	budget := e.opts.MemoryBudget
	if budget <= 0 {
		budget = defaultSpoolChunkBytes
	}
	chunk := chunkEntries(budget, int64(entryBytes[K]()), minSpoolChunkEntries)
	// The merge output batch is a fraction of the chunk, so the stream's
	// granularity scales with the budget.
	batchLen := max(chunk/4, minSpoolChunkEntries)

	// Job-local tracker and pool: spooled jobs are rare and large, and a
	// job-local tracker gives an honest per-job TempPeakBytes (the node
	// trackers are engine-lifetime and shared across concurrent jobs).
	f := &runFormer[K]{
		ctx: ctx, codec: e.codec, cmps: e.comparators(), workers: e.opts.WorkersPerProc,
		pool: &alloc.SlabPool[comm.Entry[K]]{}, refPool: &alloc.SlabPool[lsort.NormRef]{}, tracker: &alloc.Tracker{},
		blockBytes: spoolBlockBytes(budget),
	}
	// scratch is the file the live runs are in: first the one every
	// section forms its chunk runs into, then each merge pass's output.
	scratch, err := e.scratch.Take()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.scratch.Give(scratch)
		}
	}()
	start := time.Now()

	// Phase 1: run formation. Node i reads its contiguous section of the
	// spool and writes sorted chunk runs that fit the budget.
	nodeRuns := make([][]spill.Run, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		lo := uint64(i) * uint64(in.N) / uint64(p)
		hi := uint64(i+1) * uint64(in.N) / uint64(p)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(node int, lo, n uint64) {
			defer wg.Done()
			nodeRuns[node], errs[node] = f.formSection(in, node, lo, n, chunk, scratch)
		}(i, lo, hi-lo)
	}
	wg.Wait()
	var runs []spill.Run
	for i, nerr := range errs {
		if nerr != nil {
			return nil, nerr
		}
		runs = append(runs, nodeRuns[i]...)
	}
	localSortDur := time.Since(start)

	// Phase 2: bounded fan-in merge. While more than fanIn runs remain, a
	// pass merges them by groups into another scratch file and the one
	// they were in goes back, for the next pass to write into; the
	// survivors feed the streaming final merge.
	for len(runs) > spoolMergeFanIn {
		out, err := e.scratch.Take()
		if err != nil {
			return nil, err
		}
		next, err := f.mergePass(runs, out, batchLen)
		if err != nil {
			e.scratch.Give(out)
			return nil, err
		}
		e.scratch.Give(scratch)
		runs, scratch = next, out
	}

	// Final merge: prime a streaming cursor over the surviving runs.
	cur, done, err := f.stream(runs, batchLen)
	if err != nil {
		return nil, err
	}
	res = &SpooledResult[K]{N: in.N, cur: cur, runs: f, start: start, done: done, scratch: scratch, pool: e.scratch}
	res.Report = Report{
		Procs:      p,
		Workers:    e.opts.WorkersPerProc,
		N:          in.N,
		MergePath:  "spooled-kway+spill",
		SpillBytes: f.spillBytes.Load(),
		SpillReads: f.spillReads.Load(),
		PerNode:    make([]NodeReport, 1),
	}
	res.Report.Steps[StepLocalSort] = localSortDur
	return res, nil
}

// mergePass is one rung of the bounded fan-in ladder: the runs, in order,
// merge by groups of at most spoolMergeFanIn into as many runs of out.
// The groups are even, so every run is merged in every pass and a pass
// reads one scratch file and writes one.
func (f *runFormer[K]) mergePass(runs []spill.Run, out *spill.Scratch, batchLen int) ([]spill.Run, error) {
	groups := (len(runs) + spoolMergeFanIn - 1) / spoolMergeFanIn
	next := make([]spill.Run, groups)
	for g := range next {
		group := runs[g*len(runs)/groups : (g+1)*len(runs)/groups]
		merged, done, err := f.stream(group, batchLen)
		if err != nil {
			return nil, err
		}
		next[g], err = f.writeRun(out, nil, merged)
		done()
		if err != nil {
			return nil, err
		}
	}
	return next, nil
}
