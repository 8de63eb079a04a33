package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/transport"
)

// flatKeys flattens a result into one key sequence for byte-identity
// comparison (keys plus origin stamps: the full observable output).
func flatKeys(res *Result[uint64]) []comm.Entry[uint64] {
	var out []comm.Entry[uint64]
	for _, part := range res.Parts {
		out = append(out, part...)
	}
	return out
}

func sameOutput(t *testing.T, clean, retried *Result[uint64]) {
	t.Helper()
	if len(clean.Parts) != len(retried.Parts) {
		t.Fatalf("part count differs: clean %d, retried %d", len(clean.Parts), len(retried.Parts))
	}
	for i := range clean.Parts {
		if len(clean.Parts[i]) != len(retried.Parts[i]) {
			t.Fatalf("part %d length differs: clean %d, retried %d", i, len(clean.Parts[i]), len(retried.Parts[i]))
		}
	}
	a, b := flatKeys(clean), flatKeys(retried)
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Proc != b[i].Proc || a[i].Index != b[i].Index {
			t.Fatalf("entry %d differs: clean %+v, retried %+v", i, a[i], b[i])
		}
	}
}

// checkNoLeak asserts the Fig-11 balance: every node's temporary-memory
// tracker is back to zero, so the failed attempt leaked no slab
// accounting.
func checkNoLeak(t *testing.T, e *Engine[uint64]) {
	t.Helper()
	for i, n := range e.nodes {
		if live := n.tracker.Live(); live != 0 {
			t.Fatalf("node %d tracker.Live = %d after retried sort, want 0", i, live)
		}
	}
}

// TestRetryDifferentialPerStage is the tentpole's differential test: a
// job failing at each engine-stage failpoint (error and panic modes,
// plus the datamgr assembly and engine send sites) is retried by the
// scheduler and must return output byte-identical to an uninjected run,
// with zero live temp-memory on every node afterwards.
func TestRetryDifferentialPerStage(t *testing.T) {
	sites := []string{
		"core/local-sort", "core/splitters", "core/exchange", "core/merge",
		"datamgr/assembly-write", fpSend,
	}
	modes := []failpoint.Mode{failpoint.ModeError, failpoint.ModePanic}
	for _, site := range sites {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", site, mode), func(t *testing.T) {
				failpoint.Reset()
				t.Cleanup(failpoint.Reset)
				e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
				parts := mkParts(dist.RightSkewed, 4, 3000, 99)

				sched := NewScheduler(e, SortManyOpts{
					Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
				})
				clean, err := sched.RunOne(context.Background(), parts)
				if err != nil {
					t.Fatalf("clean run: %v", err)
				}

				arm := failpoint.Schedule{Mode: mode}
				if site == fpSend {
					// 3 samples, 3 splitter broadcasts and 12 range
					// metadata messages go first: the 20th send fails
					// mid-exchange.
					arm.Nth = 20
				}
				failpoint.Set(site, arm)
				retried, err := sched.RunOne(context.Background(), parts)
				if err != nil {
					t.Fatalf("retried run: %v", err)
				}
				if fired := failpoint.Fired(site); fired != 1 {
					t.Fatalf("failpoint fired %d times, want 1", fired)
				}
				if retried.Report.Attempts != 2 {
					t.Fatalf("Attempts = %d, want 2", retried.Report.Attempts)
				}
				if sched.Retries() < 1 {
					t.Fatalf("scheduler Retries = %d, want >= 1", sched.Retries())
				}
				sameOutput(t, clean, retried)
				checkNoLeak(t, e)
			})
		}
	}
}

// TestFailpointAbortsWholeSortQuickly proves abort-on-first-error: one
// node's injected failure must fail the whole plain Sort promptly (peers
// blocked on its messages are torn down, not hung), classify Transient,
// and leave the engine usable.
func TestFailpointAbortsWholeSortQuickly(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 1})
	parts := mkParts(dist.Uniform, 4, 2000, 11)

	failpoint.Set("core/splitters", failpoint.Schedule{Mode: failpoint.ModeError})
	done := make(chan error, 1)
	go func() {
		_, err := e.Sort(parts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("injected sort succeeded")
		}
		var f *Failure
		if !errors.As(err, &f) {
			t.Fatalf("error %v is not a *Failure", err)
		}
		if f.Class != FailTransient || f.Stage != StageSplitters {
			t.Fatalf("Failure class=%v stage=%v, want transient/splitters", f.Class, f.Stage)
		}
		if !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("error %v does not unwrap to the injected sentinel", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("injected failure hung the sort instead of aborting it")
	}

	// The engine survives: an uninjected sort still works.
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("follow-up sort: %v", err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
	checkNoLeak(t, e)
}

// TestRetryBudgetExhausts caps runaway retries: with the failpoint
// firing forever and a lifetime budget of 1, the job must fail with the
// budget error after exactly one retry.
func TestRetryBudgetExhausts(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	e := newTestEngine(t, Options{Procs: 2, WorkersPerProc: 1})
	parts := mkParts(dist.Uniform, 2, 500, 3)
	sched := NewScheduler(e, SortManyOpts{
		Retry: RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, Budget: 1},
	})
	failpoint.Set("core/local-sort", failpoint.Schedule{Mode: failpoint.ModeError, Count: -1})
	_, err := sched.RunOne(context.Background(), parts)
	if err == nil {
		t.Fatal("unlimited injection with budget 1 should fail")
	}
	if sched.Retries() != 1 {
		t.Fatalf("Retries = %d, want exactly 1 (budget)", sched.Retries())
	}
	checkNoLeak(t, e)
}

// TestNoRetryOnCancel: a job whose context dies mid-run must not be
// retried, and the context error must surface unwrapped so callers can
// errors.Is on it.
func TestNoRetryOnCancel(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	e := newTestEngine(t, Options{Procs: 2, WorkersPerProc: 1})
	parts := mkParts(dist.Uniform, 2, 500, 3)
	sched := NewScheduler(e, SortManyOpts{
		Retry: RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sched.RunOne(ctx, parts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sched.Retries() != 0 {
		t.Fatalf("cancelled job was retried %d times", sched.Retries())
	}
}

// TestClassify pins the failure taxonomy's classification table.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want FailureClass
	}{
		{"nil", nil, FailUnknown},
		{"plain", errors.New("boom"), FailUnknown},
		{"canceled", context.Canceled, FailUnknown},
		{"deadline", fmt.Errorf("dataset 0: %w", context.DeadlineExceeded), FailUnknown},
		{"link", &transport.LinkError{Src: 0, Dst: 1, Attempts: 3, Err: errors.New("refused")}, FailFatal},
		{"link-wrapped", fmt.Errorf("core: %w", &transport.LinkError{Src: 1, Dst: 2}), FailFatal},
		{"io-deadline", &transport.DeadlineError{Op: "write", Src: 0, Dst: 1}, FailTransient},
		{"injected", &failpoint.Error{Site: "x"}, FailTransient},
		{"panic", &panicError{val: "boom"}, FailTransient},
		{"frame", fmt.Errorf("send: %w", comm.ErrFrameTooLarge), FailDataDependent},
		{"failure-passthrough", &Failure{Class: FailFatal, Err: errors.New("inner")}, FailFatal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryDeterministicUnderSortMany: retries inside a pipelined batch
// keep every dataset's result correct (the retried job holds its
// admission slot, fresh stage controllers per attempt).
func TestRetryUnderSortManyBatch(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 1})
	var datasets [][][]uint64
	for d := 0; d < 4; d++ {
		datasets = append(datasets, mkParts(dist.Uniform, 4, 1500, uint64(100+d)))
	}
	// Fire twice somewhere in the middle of the batch's exchange hits.
	failpoint.Set("core/exchange", failpoint.Schedule{Mode: failpoint.ModeError, Nth: 3, Count: 2})
	sched := NewScheduler(e, SortManyOpts{
		MaxInflight: 2,
		Retry:       RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
	})
	results, err := sched.Run(context.Background(), datasets)
	if err != nil {
		t.Fatalf("batch with retries failed: %v", err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("dataset %d has no result", i)
		}
		if err := res.Verify(datasets[i]); err != nil {
			t.Fatalf("dataset %d: %v", i, err)
		}
	}
	checkNoLeak(t, e)
}
