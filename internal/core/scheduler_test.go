package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pgxsort/internal/dist"
)

// mkDatasets builds one distributed dataset per distribution kind, the
// Figure 5/6 mix the scheduler benchmarks use.
func mkDatasets(procs, perProc int, seed uint64) [][][]uint64 {
	datasets := make([][][]uint64, len(dist.Kinds))
	for d, kind := range dist.Kinds {
		datasets[d] = mkParts(kind, procs, perProc, seed+uint64(d)*101)
	}
	return datasets
}

func verifyAll(t *testing.T, results []*Result[uint64], datasets [][][]uint64) {
	t.Helper()
	if len(results) != len(datasets) {
		t.Fatalf("got %d results for %d datasets", len(results), len(datasets))
	}
	for d, res := range results {
		if res == nil {
			t.Fatalf("dataset %d: nil result", d)
		}
		if err := res.Verify(datasets[d]); err != nil {
			t.Fatalf("dataset %d: %v", d, err)
		}
	}
}

// checkStageSpans checks the order a scheduled sort's trace must have:
// every node goes through the stages in order, so each stage starts no
// earlier than its predecessor and ends no earlier than it, and no stage
// ends before it starts.
func checkStageSpans(t *testing.T, label string, tr SchedTrace) {
	t.Helper()
	if !tr.Pipelined {
		t.Errorf("%s: Sched.Pipelined not set", label)
	}
	for st := SchedStage(0); st < NumSchedStages; st++ {
		if tr.StageEnd[st] < tr.StageStart[st] {
			t.Errorf("%s stage %v: end %v before start %v", label, st, tr.StageEnd[st], tr.StageStart[st])
		}
		if st == 0 {
			continue
		}
		if tr.StageStart[st] < tr.StageStart[st-1] || tr.StageEnd[st] < tr.StageEnd[st-1] {
			t.Errorf("%s: stage %v [%v,%v] is not after stage %v [%v,%v]", label,
				st, tr.StageStart[st], tr.StageEnd[st], st-1, tr.StageStart[st-1], tr.StageEnd[st-1])
		}
	}
}

func TestSortManyPipelinedVerifies(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	datasets := mkDatasets(4, 4000, 7)
	results, err := e.SortManyWith(context.Background(), SortManyOpts{MaxInflight: 2}, datasets...)
	if err != nil {
		t.Fatalf("SortManyWith: %v", err)
	}
	verifyAll(t, results, datasets)
	for d, res := range results {
		checkStageSpans(t, fmt.Sprintf("dataset %d", d), res.Report.Sched)
	}
}

// TestSchedulerInflightCap checks the admission invariant: never more
// than MaxInflight datasets in flight. At cap 1 admission alone
// serializes whole jobs, so no two datasets' spans, local-sort start to
// merge end, overlap.
func TestSchedulerInflightCap(t *testing.T) {
	for _, cap := range []int{1, 2} {
		e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
		datasets := mkDatasets(4, 4000, 11)
		sched := NewScheduler(e, SortManyOpts{MaxInflight: cap})
		results, err := sched.Run(context.Background(), datasets)
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		verifyAll(t, results, datasets)
		if got := sched.PeakInflight(); got < 1 || got > cap {
			t.Errorf("cap %d: peak inflight %d", cap, got)
		}
		if cap > 1 {
			continue
		}
		for i := range results {
			a := results[i].Report.Sched
			for j := i + 1; j < len(results); j++ {
				b := results[j].Report.Sched
				aStart, aEnd := a.StageStart[StageLocalSort], a.StageEnd[StageMerge]
				bStart, bEnd := b.StageStart[StageLocalSort], b.StageEnd[StageMerge]
				if aStart < bEnd && bStart < aEnd {
					t.Errorf("cap 1: datasets %d and %d overlap: [%v,%v] vs [%v,%v]",
						i, j, aStart, aEnd, bStart, bEnd)
				}
			}
		}
	}
}

// TestSortManyInputOrder checks results stay addressable by input index
// under a sequential admission cap, whatever the datasets' sizes.
func TestSortManyInputOrder(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	// Distinguishable datasets: dataset d holds only the key d.
	datasets := make([][][]uint64, 3)
	sizes := []int{30000, 100, 8000}
	for d := range datasets {
		parts := make([][]uint64, 4)
		for i := range parts {
			keys := make([]uint64, sizes[d]/4)
			for j := range keys {
				keys[j] = uint64(d)
			}
			parts[i] = keys
		}
		datasets[d] = parts
	}
	results, err := e.SortManyWith(context.Background(),
		SortManyOpts{MaxInflight: 1}, datasets...)
	if err != nil {
		t.Fatalf("SortManyWith: %v", err)
	}
	for d, res := range results {
		keys := res.Keys()
		if len(keys) == 0 || keys[0] != uint64(d) || keys[len(keys)-1] != uint64(d) {
			t.Fatalf("result %d does not hold dataset %d's keys", d, d)
		}
	}
}

// TestSortManyJoinsErrors checks the errors.Join behaviour: a malformed
// dataset fails with its index, the others still sort and stay
// addressable at their input positions.
func TestSortManyJoinsErrors(t *testing.T) {
	good := mkParts(dist.Uniform, 4, 2000, 3)
	bad := mkParts(dist.Uniform, 3, 2000, 4) // wrong part count
	bad2 := mkParts(dist.Uniform, 5, 2000, 5)
	for _, inflight := range []int{0, 3} {
		e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
		results, err := e.SortManyWith(context.Background(),
			SortManyOpts{MaxInflight: inflight}, good, bad, bad2)
		if err == nil {
			t.Fatalf("inflight %d: malformed datasets sorted without error", inflight)
		}
		for _, want := range []string{"dataset 1", "dataset 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("inflight %d: error %q does not mention %s", inflight, err, want)
			}
		}
		if results[0] == nil {
			t.Fatalf("inflight %d: healthy dataset dropped", inflight)
		}
		if err := results[0].Verify(good); err != nil {
			t.Errorf("inflight %d: healthy result corrupt: %v", inflight, err)
		}
		if results[1] != nil || results[2] != nil {
			t.Errorf("inflight %d: failed datasets produced results", inflight)
		}
	}
}

// TestSortCancelDoesNotPoisonEngine cancels one sort mid-flight and then
// reuses the engine: the cancellation must tear down only that sort's
// mailboxes.
func TestSortCancelDoesNotPoisonEngine(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	parts := mkParts(dist.Uniform, 4, 200000, 9)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.SortCtx(ctx, parts)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	err := <-done
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sort failed with a non-ctx error: %v", err)
	}
	// Whether or not the cancel raced with completion, the engine must
	// still sort correctly afterwards — several times, to cross old ids.
	for round := 0; round < 3; round++ {
		after := mkParts(dist.Normal, 4, 3000, uint64(20+round))
		res, err := e.Sort(after)
		if err != nil {
			t.Fatalf("round %d after cancel: %v", round, err)
		}
		if err := res.Verify(after); err != nil {
			t.Fatalf("round %d after cancel: %v", round, err)
		}
	}
}

// TestCancelReleasesTempMemory checks a cancelled sort returns its
// exchange-assembly accounting: the per-node temp-memory trackers must
// drop back to zero live bytes, or every later sort on the reused engine
// reports inflated Figure-11 temp peaks. Cancels are spread across the
// whole measured sort duration so some land after the exchange assembly
// exists (the leak-prone window).
func TestCancelReleasesTempMemory(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	big := mkParts(dist.Uniform, 4, 100000, 33)

	start := time.Now()
	if _, err := e.Sort(big); err != nil {
		t.Fatal(err)
	}
	duration := time.Since(start)

	const tries = 16
	for i := 0; i < tries; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = e.SortCtx(ctx, big)
		}()
		time.Sleep(duration * time.Duration(i) / tries)
		cancel()
		<-done
		for n := 0; n < 4; n++ {
			if live := e.nodes[n].tracker.Live(); live != 0 {
				t.Fatalf("cancel at %d/%d of sort: node %d has %d temp bytes still live",
					i, tries, n, live)
			}
		}
	}
}

// TestSortManyCancelledContext checks a pre-cancelled batch fails fast
// without admitting anything, and the engine survives.
func TestSortManyCancelledContext(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	datasets := mkDatasets(4, 1000, 13)
	results, err := e.SortManyWith(ctx, SortManyOpts{}, datasets...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for d, res := range results {
		if res != nil {
			t.Errorf("dataset %d produced a result under a cancelled ctx", d)
		}
	}
	res, err := e.Sort(datasets[0])
	if err != nil {
		t.Fatalf("engine poisoned after cancelled batch: %v", err)
	}
	if err := res.Verify(datasets[0]); err != nil {
		t.Fatal(err)
	}
}

// TestSortManyPipelinedUnderJitter runs the scheduler under delayed sends
// (and under -race in CI) to shake out timing assumptions.
func TestSortManyPipelinedUnderJitter(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	armSendJitter(t, 42, 24, 200*time.Microsecond)
	datasets := mkDatasets(4, 2500, 17)
	results, err := e.SortManyWith(context.Background(), SortManyOpts{MaxInflight: 3}, datasets...)
	if err != nil {
		t.Fatalf("SortManyWith: %v", err)
	}
	verifyAll(t, results, datasets)
}

// TestCloseDuringPipelinedSortMany closes the engine while a pipelined
// batch is in flight: every sort must fail (or finish) promptly instead
// of deadlocking on a node whose peers already bailed out.
func TestCloseDuringPipelinedSortMany(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	datasets := mkDatasets(4, 100000, 29)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Errors are expected; the point is that Run returns at all.
		_, _ = e.SortManyWith(context.Background(), SortManyOpts{MaxInflight: 2}, datasets...)
	}()
	time.Sleep(2 * time.Millisecond)
	e.Close()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SortManyWith deadlocked after engine Close")
	}
}

// TestSortManySchedulesAgree checks three schedules agree on the sorted
// output: one dataset at a time, two, and every dataset at once.
func TestSortManySchedulesAgree(t *testing.T) {
	datasets := mkDatasets(4, 2000, 23)
	var kinds = []SortManyOpts{
		{MaxInflight: 1},
		{MaxInflight: 2},
		{MaxInflight: len(datasets)},
	}
	var want [][]uint64
	for _, opts := range kinds {
		e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
		results, err := e.SortManyWith(context.Background(), opts, datasets...)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		verifyAll(t, results, datasets)
		keys := make([][]uint64, len(results))
		for d, res := range results {
			keys[d] = res.Keys()
		}
		if want == nil {
			want = keys
			continue
		}
		for d := range keys {
			if len(keys[d]) != len(want[d]) {
				t.Fatalf("%+v: dataset %d length mismatch", opts, d)
			}
			for i := range keys[d] {
				if keys[d][i] != want[d][i] {
					t.Fatalf("%+v: dataset %d differs at %d", opts, d, i)
				}
			}
		}
	}
}
