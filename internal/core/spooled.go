package core

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
)

// This file is the fully out-of-core sort path: the input arrives as a
// Spool (a streaming ingress landed it on the engine's disk) and the
// output leaves as a cursor (streaming egress), so neither the input nor
// the result is ever resident. Step 1 is the shared run former (runs.go) —
// each of the p nodes sorts its contiguous section of the spool, here
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

// spoolBlockBytes picks the block size for a spooled job's runs, the
// spool's included: small enough that a fan-in's worth of decoded block
// slabs stays a fraction of the budget, large enough that a block — one
// write, one read, stored raw — batches I/O. The size bounds a block's
// wire bytes, origin fields included, so its decoded slab is at most
// 40/16 of it for uint64 keys.
func spoolBlockBytes(budget int64) int {
	return int(min(max(budget/(4*spoolMergeFanIn), 4<<10), spill.DefaultBlockBytes))
}

// spoolBudget is the memory a spooled job sizes its chunks and blocks
// by: the engine's budget, or defaultSpoolChunkBytes without one.
func (e *Engine[K]) spoolBudget() int64 {
	if b := e.opts.MemoryBudget; b > 0 {
		return b
	}
	return defaultSpoolChunkBytes
}

// Spool is a dataset landed on the engine's disk by a streaming ingress,
// for SortSpooled: its keys in arrival order, any key order, as one run
// in a scratch file of the engine's pool. The file has no name from the
// moment it exists, so however the process ends it leaves nothing to
// sweep. The spool holds the file from NewSpool to Close — across every
// attempt a retry makes of the sort — and Close gives it back to the
// pool. Not safe for concurrent use.
type Spool[K cmp.Ordered] struct {
	pool *spill.ScratchPool
	file *spill.Scratch
	w    *spill.Writer[K]
	ents []comm.Entry[K] // Append's staging: keys framed as key-only entries
	run  spill.Run       // the keys, once Finish sealed them
	open bool            // sealed and not yet closed: sortable
}

// NewSpool takes a scratch file from the engine's pool and starts a
// spool in it, in blocks sized by the engine's budget.
func (e *Engine[K]) NewSpool() (*Spool[K], error) {
	return newSpool(e.scratch, e.codec, spoolBlockBytes(e.spoolBudget()))
}

func newSpool[K cmp.Ordered](pool *spill.ScratchPool, c comm.Codec[K], blockBytes int) (*Spool[K], error) {
	file, err := pool.Take()
	if err != nil {
		return nil, err
	}
	return &Spool[K]{pool: pool, file: file, w: spill.NewRunWriter(file, c, blockBytes)}, nil
}

// Append lands keys after the ones already spooled. keys is not
// retained. A failed Append fails every later one, and Finish.
func (s *Spool[K]) Append(keys []K) error {
	s.ents = s.ents[:0]
	for _, k := range keys {
		s.ents = append(s.ents, comm.Entry[K]{Key: k})
	}
	return s.w.Append(s.ents)
}

// Finish seals the spool: from here on it can be sorted, as often as
// its sort is retried, until Close.
func (s *Spool[K]) Finish() error {
	if err := s.w.Finish(); err != nil {
		return err
	}
	s.run, s.ents, s.open = s.w.Run(), nil, true
	return nil
}

// Len reports how many keys a finished spool holds.
func (s *Spool[K]) Len() int { return int(s.run.Entries()) }

// Close gives the spool's file back to the engine's pool, finished or
// not; no sort of the spool may be running. Idempotent; it cannot fail.
func (s *Spool[K]) Close() error {
	if s.file != nil {
		s.w.Abort()
		s.pool.Give(s.file)
		s.file, s.run, s.open = nil, spill.Run{}, false
	}
	return nil
}

// SpooledResult streams a spooled sort's output in sorted batches. It
// holds open run readers and their scratch file until Close, which gives
// the file back to the engine and folds the final I/O counters and the
// final merge's time into Report. Batches follow the lsort.Cursor
// contract: valid only until the following Next.
type SpooledResult[K cmp.Ordered] struct {
	// N is the entry count the stream will yield.
	N int
	// Report carries the run's measurements. SpillReads, Total,
	// TempPeakBytes and Steps[StepFinalMerge] — the merge passes and the
	// streaming, everything after run formation — settle at Close, once
	// the stream has drained, and so does the end of the merge stage's
	// span in Sched when the scheduler ran the job (RunOneSpooled).
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
		r.Report.Steps[StepFinalMerge] = r.Report.Total - r.Report.Steps[StepLocalSort]
		r.Report.TempPeakBytes = r.runs.tracker.Peak()
		r.Report.PerNode[0].TempPeakBytes = r.Report.TempPeakBytes
		if sched := &r.Report.Sched; sched.Pipelined {
			sched.StageEnd[StageMerge] = sched.StageStart[StageLocalSort] + r.Report.Total
		}
		if r.release != nil {
			r.release()
		}
	})
	return nil
}

// RunOneSpooled admits one finished spool through the scheduler's
// shared gates and runs it under the retry policy. The admission slot is
// held until the returned result is Closed — the stream holds engine
// scratch until then, and releasing early would let unbounded spooled
// streams pile up past the inflight cap. Retries cover failures during
// run formation and merge priming, before any output byte exists; an
// error mid-stream (from Next) is not retried, because output already
// left. The spool stays the caller's, to Close after the result.
//
// The result's Report.Sched traces the job from the call: the admission
// wait, run formation as the local-sort stage and everything after it,
// up to Close, as the merge stage. Steps 2 to 5 are elided: their stages
// are empty spans where formation ends.
func (s *Scheduler[K]) RunOneSpooled(ctx context.Context, in *Spool[K]) (*SpooledResult[K], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	epoch := time.Now()
	select {
	case s.gates.admit <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	admitWait := time.Since(epoch)
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
	sched := &res.Report.Sched
	sched.Pipelined, sched.AdmitWait = true, admitWait
	sched.StageStart[StageLocalSort] = res.start.Sub(epoch)
	formed := sched.StageStart[StageLocalSort] + res.Report.Steps[StepLocalSort]
	for st := StageLocalSort + 1; st < NumSchedStages; st++ {
		sched.StageStart[st], sched.StageEnd[st-1] = formed, formed
	}
	return res, nil
}

// SortSpooled externally sorts a finished spool under the engine's
// memory budget, returning a streaming result. Temporary memory — chunk
// staging, sort refs, decoded block slabs — is tracker-accounted per job;
// the working set is O(chunk + fanIn·block) per node, independent of N.
// The spool is only read: a failed sort can be run again over it.
func (e *Engine[K]) SortSpooled(ctx context.Context, in *Spool[K]) (res *SpooledResult[K], err error) {
	if in == nil || !in.open {
		return nil, fmt.Errorf("core: spooled input is not a finished, open spool")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := e.opts.Procs
	budget := e.spoolBudget()
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

	// Phase 1: run formation. Node i reads its section of the spool, a
	// contiguous run of whole blocks, and writes sorted chunk runs that
	// fit the budget.
	sections := in.run.Split(p)
	nodeRuns := make([][]spill.Run, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i, sec := range sections {
		if sec.Entries() == 0 {
			continue
		}
		wg.Add(1)
		go func(node int, sec spill.Run) {
			defer wg.Done()
			nodeRuns[node], errs[node] = f.formSection(sec, node, chunk, scratch)
		}(i, sec)
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
	res = &SpooledResult[K]{N: in.Len(), cur: cur, runs: f, start: start, done: done, scratch: scratch, pool: e.scratch}
	res.Report = Report{
		Procs:      p,
		Workers:    e.opts.WorkersPerProc,
		N:          in.Len(),
		MergePath:  "spooled-kway+spill",
		SpillBytes: f.spillBytes.Load(),
		SpillReads: f.spillReads.Load(),
		PerNode:    make([]NodeReport, 1),
	}
	res.Report.Steps[StepLocalSort] = localSortDur
	return res, nil
}

// sectionSource yields one node's contiguous section of a spool (see
// formSection), read a block at a time: keys[:n] is the staged chunk, its
// keys only.
type sectionSource[K cmp.Ordered] struct {
	sec     *spill.RunReader[K]
	keys    []K // staging, one chunk long
	n       int
	pending []comm.Entry[K] // unconsumed tail of the reader's live batch
}

func (s *sectionSource[K]) size() int { return int(s.sec.Count()) }

func (s *sectionSource[K]) next(max int) (int, error) {
	dst := s.keys[:min(max, len(s.keys))]
	s.n = 0
	for s.n < len(dst) {
		if len(s.pending) == 0 {
			var err error
			if s.pending, err = s.sec.Next(); err != nil {
				return 0, err
			}
			if len(s.pending) == 0 {
				break
			}
		}
		n := min(len(dst)-s.n, len(s.pending))
		for i, e := range s.pending[:n] {
			dst[s.n+i] = e.Key
		}
		s.n += n
		s.pending = s.pending[n:]
	}
	return s.n, nil
}

func (s *sectionSource[K]) refs(dst []lsort.NormRef, norm func(K) uint64) {
	for i, k := range s.keys[:s.n] {
		dst[i] = lsort.NormRef{Norm: norm(k), Idx: uint32(i)}
	}
}

func (s *sectionSource[K]) less(i, j uint32) bool { return s.keys[i] < s.keys[j] }

// sectionBatch is how many entries of a sorted section chunk are built at
// a time on their way to its run.
const sectionBatch = 1 << 10

// formSection is step 1 for one node of a spooled job: its section of
// the spool, sec, becomes sorted runs of at most chunk entries in the
// scratch file the job's sections share. Nothing stays resident: a chunk
// is staged as bare keys and sorted by ref like any share, and its run is
// written from the sorted refs and the staged keys as key-only entries
// whose provenance is (node, position in the section), a batch at a time.
// The staging, the refs and the batch are tracker-accounted.
func (f *runFormer[K]) formSection(sec spill.Run, node, chunk int, to *spill.Scratch) ([]spill.Run, error) {
	r := spill.OpenRun(sec, f.codec, f.readerOpts())
	defer func() {
		f.spillReads.Add(r.BytesRead())
		r.Close()
	}()
	src := &sectionSource[K]{sec: r}
	if err := checkShare[K](src); err != nil {
		return nil, err
	}
	chunk = min(chunk, src.size())
	var k K
	staged := int64(chunk) * int64(unsafe.Sizeof(k))
	f.tracker.Alloc(staged)
	defer f.tracker.Free(staged)
	src.keys = make([]K, chunk)
	run := &sortedChunk[K]{keys: src.keys, node: uint32(node), batch: f.take(min(chunk, sectionBatch))}
	defer f.give(run.batch)
	return f.formRuns(src, chunk, func(lo int, sorted []lsort.NormRef) (spill.Run, error) {
		run.refs, run.lo = sorted, uint32(lo)
		return f.writeRun(to, run)
	})
}

// sortedChunk is a sorted chunk of a section as a cursor of the key-only
// entries its refs stand for, a batch at a time: the key staged at the
// ref's position, stamped with the section's node and the key's position
// in the section.
type sortedChunk[K cmp.Ordered] struct {
	refs     []lsort.NormRef
	keys     []K
	node, lo uint32
	batch    []comm.Entry[K]
}

func (c *sortedChunk[K]) Next() ([]comm.Entry[K], error) {
	n := min(len(c.refs), len(c.batch))
	for j, r := range c.refs[:n] {
		c.batch[j] = comm.Entry[K]{Key: c.keys[r.Idx], Proc: c.node, Index: c.lo + r.Idx}
	}
	c.refs = c.refs[n:]
	return c.batch[:n], nil
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
		next[g], err = f.writeRun(out, merged)
		done()
		if err != nil {
			return nil, err
		}
	}
	return next, nil
}
