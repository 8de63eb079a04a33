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
// when neither Options.MaxInflight nor SortManyOpts.MaxInflight is set:
// one dataset in a communication stage while a second computes.
const DefaultMaxInflight = 2

// SortManyOpts configures the pipelined multi-dataset scheduler.
type SortManyOpts struct {
	// MaxInflight caps how many datasets are admitted at once. 0 uses
	// the engine's Options.MaxInflight (default 2); 1 degenerates to
	// strictly sequential execution.
	MaxInflight int
	// Naive disables the staged scheduler and fires every dataset at
	// once with unbounded concurrency — the pre-scheduler behaviour.
	// Only the root package's BenchmarkSortManyPipeline sets it, as its
	// "naive" row (and the scheduler's tests, to compare against it).
	Naive bool
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
// runs with a fresh stage controller, with the previous attempt's
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

// stageGates is the shared admission state of one scheduler: an admission
// semaphore plus a one-slot gate per serialized (communication) stage.
type stageGates struct {
	admit chan struct{}
	gates [NumSchedStages]chan struct{}
}

func newStageGates(maxInflight int) *stageGates {
	g := &stageGates{admit: make(chan struct{}, maxInflight)}
	for st := SchedStage(0); st < NumSchedStages; st++ {
		if st.Serial() {
			g.gates[st] = make(chan struct{}, 1)
		}
	}
	return g
}

// Scheduler pipelines several sorts over one engine. It admits at most
// MaxInflight datasets and at most one dataset per communication stage at
// a time, so dataset d+1's CPU-bound stages overlap dataset d's exchange
// instead of competing with it — the deliberate version of the paper's
// "sort multiple different data simultaneously".
//
// A Scheduler is safe for concurrent use; overlapping Run calls share the
// same admission slots and stage gates.
type Scheduler[K cmp.Ordered] struct {
	eng   *Engine[K]
	opts  SortManyOpts
	gates *stageGates

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
	return &Scheduler[K]{eng: e, opts: opts, gates: newStageGates(opts.MaxInflight)}
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
// policy. Every attempt gets a fresh stage controller — the failed
// attempt's ctrl has forfeited all its stages and must not be reused.
func (s *Scheduler[K]) runAttempts(ctx context.Context, j job[K], gated bool, epoch time.Time, admitWait time.Duration) (*Result[K], error) {
	var res *Result[K]
	attempts, err := s.retry(ctx, func() (err error) {
		var ctrl *stageCtrl
		if gated {
			ctrl = newStageCtrl(ctx, s.gates, s.eng.opts.Procs, epoch, admitWait)
		}
		res, err = s.eng.sortOne(ctx, j, ctrl)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Report.Attempts = attempts
	return res, nil
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

// RunOne admits a single dataset through this scheduler's shared gates —
// the multi-tenant admission path the pgxsortd service uses: every job
// submitted over HTTP shares one scheduler per engine, so the inflight
// cap and the one-dataset-per-communication-stage rule hold across
// tenants exactly as they do within one SortMany batch.
func (s *Scheduler[K]) RunOne(ctx context.Context, parts [][]K) (*Result[K], error) {
	results, err := s.runJobs(ctx, []job[K]{{parts: parts}})
	return results[0], unwrapSingle(err)
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
func (s *Scheduler[K]) runJobs(ctx context.Context, jobs []job[K]) ([]*Result[K], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result[K], len(jobs))
	errs := make([]error, len(jobs))
	epoch := time.Now()
	var wg sync.WaitGroup
	launch := func(idx int, admitWait time.Duration, gated bool) {
		wg.Add(1)
		s.noteAdmit(1)
		go func() {
			defer wg.Done()
			defer func() {
				s.noteAdmit(-1)
				if gated {
					<-s.gates.admit
				}
			}()
			res, err := s.runAttempts(ctx, jobs[idx], gated, epoch, admitWait)
			if err != nil {
				errs[idx] = fmt.Errorf("dataset %d: %w", idx, err)
				return
			}
			results[idx] = res
		}()
	}
	for idx := range jobs {
		if err := s.eng.checkJob(jobs[idx]); err != nil {
			errs[idx] = fmt.Errorf("dataset %d: %w", idx, err)
			continue
		}
		if s.opts.Naive {
			launch(idx, 0, false)
			continue
		}
		// Blocking on the admission semaphore here — not inside the
		// goroutine — fixes the admission order and bounds the number of
		// live sort goroutine trees to MaxInflight. The Err pre-check
		// makes a cancelled batch skip deterministically: with a free
		// slot AND a done ctx the select below would pick at random.
		if err := ctx.Err(); err != nil {
			errs[idx] = fmt.Errorf("dataset %d: %w", idx, err)
			continue
		}
		select {
		case s.gates.admit <- struct{}{}:
		case <-ctx.Done():
			errs[idx] = fmt.Errorf("dataset %d: %w", idx, ctx.Err())
			continue
		}
		launch(idx, time.Since(epoch), true)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// stageCtrl coordinates one sort's p node goroutines with the scheduler's
// stage gates. A serialized stage is barrier-then-acquire: nodes wait
// until all p have arrived, the last arrival triggers the gate
// acquisition, and the last node to leave releases it. Acquiring only
// once everyone is ready keeps intra-sort skew (one node still busy in a
// CPU stage) from inflating the gate hold time, and means a sort holds at
// most one serial gate at a time. CPU stages have no gate and only feed
// the trace.
type stageCtrl struct {
	ctx   context.Context
	gates *stageGates
	procs int
	epoch time.Time

	ready [NumSchedStages]chan struct{}

	mu       sync.Mutex
	arrived  [NumSchedStages]int
	entered  [NumSchedStages]int
	left     [NumSchedStages]int
	acquired [NumSchedStages]bool
	finished [NumSchedStages]bool
	trace    SchedTrace
}

func newStageCtrl(ctx context.Context, gates *stageGates, procs int, epoch time.Time, admitWait time.Duration) *stageCtrl {
	c := &stageCtrl{ctx: ctx, gates: gates, procs: procs, epoch: epoch}
	c.trace.Pipelined = true
	c.trace.AdmitWait = admitWait
	for st := SchedStage(0); st < NumSchedStages; st++ {
		c.ready[st] = make(chan struct{})
		if gates.gates[st] == nil {
			close(c.ready[st]) // ungated stage: always open
		}
	}
	return c
}

// enter blocks the calling node until its sort holds stage st, returning
// how long it waited. A nil ctrl (plain Sort) admits immediately.
func (c *stageCtrl) enter(st SchedStage) (time.Duration, error) {
	if c == nil {
		return 0, nil
	}
	start := time.Now()
	if gate := c.gates.gates[st]; gate != nil {
		c.mu.Lock()
		c.arrived[st]++
		last := c.arrived[st] == c.procs
		c.mu.Unlock()
		if last {
			// Acquire on a separate goroutine so that a node blocked at
			// the barrier can still be cancelled.
			go c.acquire(st, gate)
		}
	}
	select {
	case <-c.ready[st]:
	case <-c.ctx.Done():
		return time.Since(start), c.ctx.Err()
	}
	c.mu.Lock()
	c.entered[st]++
	if c.entered[st] == 1 {
		c.trace.StageStart[st] = time.Since(c.epoch)
	}
	c.mu.Unlock()
	return time.Since(start), nil
}

// acquire takes a serialized stage's gate once every node has arrived,
// then opens the stage. If the sort was abandoned in the meantime the
// slot is handed straight back.
func (c *stageCtrl) acquire(st SchedStage, gate chan struct{}) {
	t0 := time.Now()
	select {
	case gate <- struct{}{}:
	case <-c.ctx.Done():
		return // enter unblocks via ctx
	}
	c.mu.Lock()
	c.trace.StageWait[st] = time.Since(t0)
	c.acquired[st] = true
	fin := c.finished[st]
	if fin {
		// Every node already abandoned this stage (an earlier stage
		// failed); hand the slot straight back.
		c.acquired[st] = false
	}
	c.mu.Unlock()
	close(c.ready[st])
	if fin {
		<-gate
	}
}

// forfeit counts an abandoning node as arrived at a stage it will never
// enter, so the barrier still completes and nodes already waiting at it
// are released to observe the failure instead of blocking forever.
func (c *stageCtrl) forfeit(st SchedStage) {
	if c == nil {
		return
	}
	gate := c.gates.gates[st]
	if gate == nil {
		return
	}
	c.mu.Lock()
	c.arrived[st]++
	last := c.arrived[st] == c.procs
	c.mu.Unlock()
	if last {
		go c.acquire(st, gate)
	}
}

// leave records that one node is done with stage st; the last node out
// releases the stage's gate. It must be called exactly once per node per
// stage (sortRun.leaveStage deduplicates, including on error exits).
func (c *stageCtrl) leave(st SchedStage) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.left[st]++
	release := false
	if c.left[st] == c.procs {
		c.trace.StageEnd[st] = time.Since(c.epoch)
		c.finished[st] = true
		if c.acquired[st] {
			c.acquired[st] = false
			release = true
		}
	}
	c.mu.Unlock()
	if release {
		<-c.gates.gates[st]
	}
}

// snapshot returns the trace once the sort is done.
func (c *stageCtrl) snapshot() SchedTrace {
	if c == nil {
		return SchedTrace{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trace
}
