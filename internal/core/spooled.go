package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
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
// the result is ever resident. Step 1 happens as the keys land: the spool
// stages them one budget-sized chunk at a time, and each chunk is sorted
// by ref (the run former's sortStaged, runs.go) and written as one sorted
// run. No key is ever written unsorted, so nothing re-reads the upload to
// sort it. The job then collapses the exchange: instead of moving data to
// p owners and merging per owner, one bounded fan-in k-way merge streams
// all runs straight to the consumer. The six-step sort cannot take a
// spool — steps 2 to 4 read keys by index through a resident input, and a
// spool exists so that the input is not resident — and the exchange
// exists to move data between real machines; when the dataset lives on
// disk and the answer is leaving over a socket anyway, merging at egress
// is the classic external-merge-sort final pass. The keys come out in the
// same total order every other path sorts under, so the canonical encoded
// bytes are identical to the resident pipeline's for the same key
// multiset.

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
	// spoolBatch is how many entries of a sorted chunk are built at a time
	// on their way to its run.
	spoolBatch = 1 << 10
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

// spoolChunk is how many keys a spool stages, sorts and writes as one
// run under budget: half of it for the keys and their refs.
func spoolChunk[K cmp.Ordered](budget int64) int {
	return chunkEntries(budget, int64(entryBytes[K]()), minSpoolChunkEntries)
}

// spoolBudget is the memory a spooled job sizes its chunks and blocks
// by: the engine's budget, or defaultSpoolChunkBytes without one.
func (e *Engine[K]) spoolBudget() int64 {
	if b := e.opts.MemoryBudget; b > 0 {
		return b
	}
	return defaultSpoolChunkBytes
}

// spoolFormer is a former of the engine's for one spool or one spooled
// sort, with pools and a tracker of its own: spooled jobs are rare and
// large, and a job-local tracker gives an honest per-job TempPeakBytes
// (the node trackers are engine-lifetime and shared across concurrent
// jobs).
func (e *Engine[K]) spoolFormer(ctx context.Context, budget int64) *runFormer[K] {
	return &runFormer[K]{
		ctx: ctx, codec: e.codec, cmps: e.comparators(), workers: e.opts.WorkersPerProc,
		pool: &alloc.SlabPool[comm.Entry[K]]{}, refPool: &alloc.SlabPool[lsort.NormRef]{}, tracker: &alloc.Tracker{},
		blockBytes: spoolBlockBytes(budget),
	}
}

// errSpoolSealed refuses an Append or a Finish to a spool that is
// finished or closed.
var errSpoolSealed = errors.New("core: spool is finished or closed")

// Spool is a dataset landed on the engine's disk by a streaming ingress,
// for SortSpooled, as sorted runs: Append stages keys into one chunk, and
// each full chunk — and the last, partial one at Finish — is sorted by
// ref and written as one run of key-only entries whose provenance is
// (0, arrival position). The runs are in a scratch file of the engine's
// pool, which has no name from the moment it exists, so however the
// process ends it leaves nothing to sweep. The spool holds the file from
// NewSpool to Close — across every attempt a retry makes of the sort,
// which only reads the runs — and Close gives it back to the pool. Not
// safe for concurrent use.
type Spool[K cmp.Ordered] struct {
	pool *spill.ScratchPool
	file *spill.Scratch
	f    *runFormer[K] // forms the runs: its tracker holds the staging, its counters the bytes written
	keys []K           // Append's staging, one chunk long: the next run's keys
	n    int           // keys appended
	runs []spill.Run   // the sorted runs, in arrival order
	took time.Duration // time spent forming the runs: the job's local sort
	err  error         // why Append and Finish fail: a run that failed, or errSpoolSealed
	open bool          // sealed and not yet closed: sortable
}

// NewSpool takes a scratch file from the engine's pool and starts a
// spool in it, in chunks and blocks sized by the engine's budget.
func (e *Engine[K]) NewSpool() (*Spool[K], error) {
	budget := e.spoolBudget()
	return newSpool(e.scratch, e.spoolFormer(context.Background(), budget), spoolChunk[K](budget))
}

// newSpool starts a spool in a file of pool whose runs f forms, chunk
// keys at a time; the staging is f's temporary memory until Finish.
func newSpool[K cmp.Ordered](pool *spill.ScratchPool, f *runFormer[K], chunk int) (*Spool[K], error) {
	file, err := pool.Take()
	if err != nil {
		return nil, err
	}
	f.tracker.Alloc(stagingBytes[K](chunk))
	return &Spool[K]{pool: pool, file: file, f: f, keys: make([]K, 0, chunk)}, nil
}

// stagingBytes is the size of n staged keys.
func stagingBytes[K cmp.Ordered](n int) int64 {
	var k K
	return int64(n) * int64(unsafe.Sizeof(k))
}

// Append lands keys after the ones already spooled, writing a sorted run
// each time the staged chunk fills. keys is not retained. A failed Append
// fails every later one, and Finish.
func (s *Spool[K]) Append(keys []K) error {
	if s.err != nil {
		return s.err
	}
	if total := uint64(s.n) + uint64(len(keys)); total > math.MaxUint32 {
		s.err = fmt.Errorf("%w: a spool of %d keys", ErrShareTooLarge, total)
		return s.err
	}
	for len(keys) > 0 {
		k := min(len(keys), cap(s.keys)-len(s.keys))
		s.keys, keys, s.n = append(s.keys, keys[:k]...), keys[k:], s.n+k
		if len(s.keys) == cap(s.keys) {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush sorts the staged chunk by ref and writes it as the spool's next
// run (sortedChunk).
func (s *Spool[K]) flush() error {
	start, f, n := time.Now(), s.f, len(s.keys)
	refs, batch := f.takeRefs(2*n), f.take(min(n, spoolBatch))
	defer func() {
		f.giveRefs(refs)
		f.give(batch)
	}()
	sorted := f.sortStaged(&keySource[K]{keys: s.keys}, 0, refs[:n], refs[n:])
	run, err := f.writeRun(s.file, &sortedChunk[K]{refs: sorted, keys: s.keys, lo: uint32(s.n - n), batch: batch})
	s.took += time.Since(start)
	if err != nil {
		s.err = err
		return err
	}
	s.runs, s.keys = append(s.runs, run), s.keys[:0]
	return nil
}

// Finish writes the last staged keys as a run and seals the spool: from
// here on it can be sorted, as often as its sort is retried, until Close.
func (s *Spool[K]) Finish() error {
	if s.err != nil {
		return s.err
	}
	if len(s.keys) > 0 {
		if err := s.flush(); err != nil {
			return err
		}
	}
	s.dropStaging()
	s.err, s.open = errSpoolSealed, true
	return nil
}

// dropStaging lets go of the staged chunk and its tracker bytes.
func (s *Spool[K]) dropStaging() {
	if s.keys != nil {
		s.f.tracker.Free(stagingBytes[K](cap(s.keys)))
		s.keys = nil
	}
}

// Len reports how many keys the spool holds.
func (s *Spool[K]) Len() int { return s.n }

// Close gives the spool's file back to the engine's pool, finished or
// not; no sort of the spool may be running. Idempotent; it cannot fail.
func (s *Spool[K]) Close() error {
	if s.file != nil {
		s.dropStaging()
		s.pool.Give(s.file)
		s.file, s.runs, s.err, s.open = nil, nil, errSpoolSealed, false
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
	// Report carries the run's measurements. Steps[StepLocalSort] is the
	// spool's run formation, done as the keys landed; SpillBytes counts
	// the spool's runs and the merge passes' writes. SpillReads, Total,
	// TempPeakBytes and Steps[StepFinalMerge] — the merge passes and the
	// streaming, everything after the call — settle at Close, once the
	// stream has drained, and so does the end of the merge stage's span
	// in Sched when the scheduler ran the job (RunOneSpooled).
	Report Report

	cur     lsort.Cursor[comm.Entry[K]]
	runs    *runFormer[K]
	start   time.Time
	done    func()             // releases the final merge's batch and readers
	scratch *spill.Scratch     // holds the last merge pass's runs; nil when there was none
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
		merge := time.Since(r.start)
		r.Report.SpillReads = r.runs.spillReads.Load()
		r.Report.Steps[StepFinalMerge] = merge
		r.Report.Total = r.Report.Steps[StepLocalSort] + merge
		r.Report.TempPeakBytes = max(r.Report.TempPeakBytes, r.runs.tracker.Peak())
		r.Report.PerNode[0].TempPeakBytes = r.Report.TempPeakBytes
		if sched := &r.Report.Sched; sched.Pipelined {
			sched.StageEnd[StageMerge] = sched.StageStart[StageMerge] + merge
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
// the merge passes and merge priming, before any output byte exists; an
// error mid-stream (from Next) is not retried, because output already
// left. The spool stays the caller's, to Close after the result.
//
// The result's Report.Sched traces the job from the call: the admission
// wait, then everything after it, up to Close, as the merge stage. The
// spool formed its runs before the call, so the local-sort stage is an
// empty span at admission, and steps 2 to 5 are elided: their stages are
// empty spans there too.
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
	attempts, err := s.retry(ctx, func() (err error) {
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
	at := res.start.Sub(epoch)
	for st := StageLocalSort; st < NumSchedStages; st++ {
		sched.StageStart[st], sched.StageEnd[st] = at, at
	}
	return res, nil
}

// SortSpooled externally sorts a finished spool under the engine's
// memory budget, returning a streaming result: while more than
// spoolMergeFanIn runs remain, a merge pass merges them by groups into
// fewer, and the streaming final merge takes the rest. Temporary memory —
// decoded block slabs, merge refs and batches — is tracker-accounted per
// job; the working set is O(fanIn·block) per job, independent of N. The
// spool's runs are only read: a failed sort can be run again over them.
func (e *Engine[K]) SortSpooled(ctx context.Context, in *Spool[K]) (res *SpooledResult[K], err error) {
	if in == nil || !in.open {
		return nil, fmt.Errorf("core: spooled input is not a finished, open spool")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	budget := e.spoolBudget()
	// The merge output batch is a fraction of the chunk, so the stream's
	// granularity scales with the budget.
	batchLen := max(spoolChunk[K](budget)/4, minSpoolChunkEntries)
	f := e.spoolFormer(ctx, budget)
	start := time.Now()

	// The bounded fan-in ladder. Each pass writes a scratch file of its
	// own; the one the pass before wrote goes back once it is read. The
	// survivors feed the streaming final merge.
	runs := in.runs
	var scratch *spill.Scratch // the last pass's runs; nil while they are the spool's
	defer func() {
		if err != nil {
			e.scratch.Give(scratch)
		}
	}()
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

	cur, done, err := f.stream(runs, batchLen)
	if err != nil {
		return nil, err
	}
	res = &SpooledResult[K]{N: in.Len(), cur: cur, runs: f, start: start, done: done, scratch: scratch, pool: e.scratch}
	res.Report = Report{
		Procs:         e.opts.Procs,
		Workers:       e.opts.WorkersPerProc,
		N:             in.Len(),
		MergePath:     "spooled-kway+spill",
		SpillBytes:    in.f.spillBytes.Load() + f.spillBytes.Load(),
		SpillReads:    f.spillReads.Load(),
		TempPeakBytes: in.f.tracker.Peak(),
		PerNode:       make([]NodeReport, 1),
	}
	res.Report.Steps[StepLocalSort] = in.took
	return res, nil
}

// sortedChunk is a spool's sorted chunk as a cursor of the key-only
// entries its refs stand for, a batch at a time: the key staged at the
// ref's position, stamped (0, lo + Idx) — its arrival position, lo the
// chunk's first.
type sortedChunk[K cmp.Ordered] struct {
	refs  []lsort.NormRef
	keys  []K
	lo    uint32
	batch []comm.Entry[K]
}

func (c *sortedChunk[K]) Next() ([]comm.Entry[K], error) {
	n := min(len(c.refs), len(c.batch))
	for j, r := range c.refs[:n] {
		c.batch[j] = comm.Entry[K]{Key: c.keys[r.Idx], Index: c.lo + r.Idx}
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
