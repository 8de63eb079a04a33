package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

// DefaultMaxInflight is how many datasets the scheduler admits at once
// when neither Options.MaxInflight nor SortManyOpts.MaxInflight is set.
const DefaultMaxInflight = 2

// SortManyOpts configures the multi-dataset scheduler.
type SortManyOpts struct {
	// MaxInflight caps how many datasets are admitted at once. 0 uses
	// the engine's Options.MaxInflight (default 2); 1 degenerates to
	// strictly sequential execution.
	MaxInflight int
	// Retry re-runs Transient-classed failures (see RetryPolicy). The
	// zero value disables retries.
	Retry RetryPolicy
}

// RetryPolicy makes the scheduler re-run jobs whose failure classifies
// as FailTransient: an I/O deadline, an injected failpoint, a recovered
// stage panic. Fatal and DataDependent failures never retry (they would
// fail identically), and neither does a job whose context is already
// dead. A retried job holds its admission slot across attempts — the
// pipeline sees one long job, not a re-queued one — and each attempt
// runs with a fresh span recorder, with the previous attempt's
// pooled slabs already recycled by the engine's error path.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per job, including
	// the first. <= 1 disables retries.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further
	// retry doubles it up to MaxBackoff. Both sleeps are jittered with
	// the transport's backoff jitter (transport.Jitter), so a burst of
	// failed jobs does not retry in lockstep. Defaults: 5ms base,
	// 500ms max.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the backoff jitter (0 = a fixed default, fine
	// for anything but tests wanting distinct schedules).
	JitterSeed uint64
	// Budget caps the total number of retries across the scheduler's
	// lifetime, so a pathological batch cannot retry without bound.
	// 0 means unlimited.
	Budget int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	if p.JitterSeed == 0 {
		p.JitterSeed = 0x9E3779B97F4A7C15
	}
	return p
}

// Scheduler runs several sorts over one engine at once — the paper's
// "sort multiple different data simultaneously". It admits at most
// MaxInflight datasets at a time, retries transient failures and records
// each sort's stage spans (Report.Sched); the admitted sorts share the
// engine's nodes and links freely.
//
// A Scheduler is safe for concurrent use; overlapping Run calls share the
// same admission slots.
type Scheduler[K cmp.Ordered] struct {
	eng   *Engine[K]
	opts  SortManyOpts
	slots chan struct{} // one token per admitted job

	mu       sync.Mutex
	inflight int
	peak     int

	retries     atomic.Int64
	budgetSpent atomic.Int64
	// streams counts the jitter streams retry has drawn, one a job.
	streams atomic.Uint64
	// sleep, when set, stands in for the backoff wait (tests observe the
	// backoffs through it); it reports whether the wait ran out.
	sleep func(ctx context.Context, d time.Duration) bool
}

// NewScheduler builds a scheduler over e. Zero fields of opts fall back
// to the engine's Options.
func NewScheduler[K cmp.Ordered](e *Engine[K], opts SortManyOpts) *Scheduler[K] {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = e.opts.MaxInflight
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	return &Scheduler[K]{eng: e, opts: opts, slots: make(chan struct{}, opts.MaxInflight)}
}

// PeakInflight reports the most datasets that were ever in flight at
// once across this scheduler's Run calls.
func (s *Scheduler[K]) PeakInflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// Retries reports how many retry attempts this scheduler has launched
// over its lifetime (the pgxsortd_retries_total metric).
func (s *Scheduler[K]) Retries() int64 { return s.retries.Load() }

// takeRetryBudget claims one retry against the policy's lifetime
// budget; false means the budget is exhausted.
func (s *Scheduler[K]) takeRetryBudget(pol RetryPolicy) bool {
	if pol.Budget <= 0 {
		return true
	}
	for {
		spent := s.budgetSpent.Load()
		if spent >= pol.Budget {
			return false
		}
		if s.budgetSpent.CompareAndSwap(spent, spent+1) {
			return true
		}
	}
}

// retry runs attempt under the retry policy: the first attempt plus up
// to MaxAttempts-1 re-runs of Transient-classed failures, with jittered
// exponential backoff between attempts, and reports how many attempts
// ran. The caller's admission slot is held throughout. Each call draws a
// jitter stream of its own from the scheduler's count: concurrent jobs
// retrying at once must not share a jitter sequence, or they back off in
// lockstep.
func (s *Scheduler[K]) retry(ctx context.Context, attempt func() error) (int, error) {
	pol := s.opts.Retry.withDefaults()
	backoff := pol.BaseBackoff
	rng := dist.NewRNG(pol.JitterSeed + s.streams.Add(1))
	for n := 1; ; n++ {
		err := attempt()
		if err == nil {
			return n, nil
		}
		if n >= pol.MaxAttempts || Classify(err) != FailTransient || ctx.Err() != nil {
			return n, err
		}
		if !s.takeRetryBudget(pol) {
			return n, fmt.Errorf("core: retry budget exhausted after %d attempts: %w", n, err)
		}
		if !s.wait(ctx, transport.Jitter(backoff, rng.Uint64())) {
			return n, err
		}
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
		s.retries.Add(1)
	}
}

// wait sleeps d, or less if ctx is done first; it reports whether d ran
// out.
func (s *Scheduler[K]) wait(ctx context.Context, d time.Duration) bool {
	if s.sleep != nil {
		return s.sleep(ctx, d)
	}
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// runAttempts runs one resident job to completion under the retry
// policy. Every attempt gets a fresh span recorder, so the trace is the
// last attempt's.
func (s *Scheduler[K]) runAttempts(ctx context.Context, j job[K], epoch time.Time, admitWait time.Duration) (*Result[K], error) {
	var res *Result[K]
	attempts, err := s.retry(ctx, func() (err error) {
		res, err = s.eng.sortOne(ctx, j, newStageSpans(epoch, admitWait))
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Report.Attempts = attempts
	return res, nil
}

// admit takes an admission slot for one job, waiting no longer than ctx
// lives. A done ctx admits nothing, even with a slot free: a select over
// a free slot and a done ctx would pick either at random. The caller
// hands the slot back with release.
func (s *Scheduler[K]) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.noteAdmit(1)
	return nil
}

// release hands back a slot admit took.
func (s *Scheduler[K]) release() {
	s.noteAdmit(-1)
	<-s.slots
}

func (s *Scheduler[K]) noteAdmit(delta int) {
	s.mu.Lock()
	s.inflight += delta
	if s.inflight > s.peak {
		s.peak = s.inflight
	}
	s.mu.Unlock()
}

// Run sorts every key dataset, returning results indexed by input
// position. Failed datasets leave a nil slot and their errors — wrapped
// with the dataset index — are joined into the returned error, so one
// failure neither hides the others nor discards the sorts that succeeded.
// Cancelling ctx cancels admitted sorts and skips unadmitted ones.
func (s *Scheduler[K]) Run(ctx context.Context, datasets [][][]K) ([]*Result[K], error) {
	jobs := make([]job[K], len(datasets))
	for i, ds := range datasets {
		jobs[i] = job[K]{parts: ds}
	}
	return s.runJobs(ctx, jobs)
}

// RunOne admits a single dataset through this scheduler's shared slots —
// the multi-tenant admission path the pgxsortd service uses: every job
// submitted over HTTP shares one scheduler per engine, so the inflight
// cap holds across tenants exactly as it does within one SortMany batch.
// The service answers with the keys alone, so the sort ends in them: one
// sorted key column a node, in node order — what Run's Result.Keys would
// flatten — and no entry is built for it.
func (s *Scheduler[K]) RunOne(ctx context.Context, parts [][]K) ([][]K, Report, error) {
	results, err := s.runJobs(ctx, []job[K]{{parts: parts, keys: true}})
	if err != nil {
		return nil, Report{}, unwrapSingle(err)
	}
	return results[0].keys, results[0].Report, nil
}

// unwrapSingle strips the "dataset 0:" wrapper runJobs puts on a
// single-job batch, so RunOne callers see the engine's own error.
func unwrapSingle(err error) error {
	j, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return err
	}
	es := j.Unwrap()
	if len(es) != 1 {
		return err
	}
	if inner := errors.Unwrap(es[0]); inner != nil {
		return inner
	}
	return es[0]
}

// RunRecords is Run for key+payload record datasets; the engine's codec
// must carry payloads (see Engine.SortRecords).
func (s *Scheduler[K]) RunRecords(ctx context.Context, datasets [][][]comm.Record[K]) ([]*Result[K], error) {
	if err := s.eng.checkRecordCodec(); err != nil {
		return nil, err
	}
	jobs := make([]job[K], len(datasets))
	for i, ds := range datasets {
		jobs[i] = job[K]{recs: ds}
	}
	return s.runJobs(ctx, jobs)
}

// runJobs is the shared scheduling loop behind Run and RunRecords.
// Admitting here — not inside each job's goroutine — fixes the admission
// order and bounds the live sort goroutine trees to MaxInflight. Every
// dataset of a batch arrives at its epoch, so its admission wait is
// counted from there.
func (s *Scheduler[K]) runJobs(ctx context.Context, jobs []job[K]) ([]*Result[K], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result[K], len(jobs))
	errs := make([]error, len(jobs))
	epoch := time.Now()
	var wg sync.WaitGroup
	for idx := range jobs {
		err := s.eng.checkJob(jobs[idx])
		if err == nil {
			err = s.admit(ctx)
		}
		if err != nil {
			errs[idx] = fmt.Errorf("dataset %d: %w", idx, err)
			continue
		}
		admitWait := time.Since(epoch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.release()
			res, err := s.runAttempts(ctx, jobs[idx], epoch, admitWait)
			if err != nil {
				errs[idx] = fmt.Errorf("dataset %d: %w", idx, err)
				return
			}
			results[idx] = res
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// stageSpans records one scheduled sort's SchedTrace: a stage starts when
// its first node enters it and ends when its last node leaves it. The
// clock is read under the lock, so the first stamp is the earliest entry
// and the last the latest exit. A nil recorder (a plain Sort) records
// nothing.
type stageSpans struct {
	epoch   time.Time
	mu      sync.Mutex
	entered [NumSchedStages]bool
	trace   SchedTrace
}

func newStageSpans(epoch time.Time, admitWait time.Duration) *stageSpans {
	return &stageSpans{epoch: epoch, trace: SchedTrace{Pipelined: true, AdmitWait: admitWait}}
}

// enter stamps st's start if the calling node is its first.
func (c *stageSpans) enter(st SchedStage) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if !c.entered[st] {
		c.entered[st] = true
		c.trace.StageStart[st] = time.Since(c.epoch)
	}
	c.mu.Unlock()
}

// leave stamps st's end; the last node out writes the last stamp.
func (c *stageSpans) leave(st SchedStage) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.trace.StageEnd[st] = time.Since(c.epoch)
	c.mu.Unlock()
}

// snapshot returns the trace once the sort is done.
func (c *stageSpans) snapshot() SchedTrace {
	if c == nil {
		return SchedTrace{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trace
}
