package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/spill"
)

// spillBudget is a per-node memory budget of a tenth of one node's
// entry storage — small enough to force both the local sort and the
// exchange assembly out of core.
func spillBudget[K cmp.Ordered](perProc int) int64 {
	b := int64(perProc) * int64(entryBytes[K]()) / 10
	if b < 1 {
		b = 1
	}
	return b
}

// The keys-only spill differentials — every dist kind and key type,
// budgeted against resident and against the test-side reference — live in
// differential_test.go (diffEngine runs both sinks on every case).

// TestSpillDifferentialRecords: payloads ride the spill files too —
// every record's payload must come back byte-equal after the block-file
// round trip, against a duplicate-heavy key set that forces tie-breaks.
func TestSpillDifferentialRecords(t *testing.T) {
	const procs, per = 4, 2000
	codec := comm.NewRecordCodec[uint64](comm.U64Codec{})
	recs := make([][]comm.Record[uint64], procs)
	for i := range recs {
		keys := dist.Gen{Kind: dist.FewDistinct, Seed: 71 + uint64(i)}.Keys(per)
		pays := dist.Gen{Kind: dist.Uniform, Seed: 171 + uint64(i)}.Payloads(per, 40)
		recs[i] = make([]comm.Record[uint64], per)
		for j := range recs[i] {
			recs[i][j] = comm.Record[uint64]{Key: keys[j], Payload: pays[j]}
		}
	}
	sortRecs := func(budget int64) *Result[uint64] {
		e, err := NewEngine[uint64](Options{
			Procs: procs, WorkersPerProc: 2,
			MemoryBudget: budget, SpillDir: t.TempDir(),
		}, codec)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		defer e.Close()
		res, err := e.SortRecords(recs)
		if err != nil {
			t.Fatalf("SortRecords: %v", err)
		}
		return res
	}
	want := sortRecs(-1)
	// Records are wider than bare entries; a tenth of the bare-entry
	// footprint is far below the record footprint, guaranteeing spilling.
	got := sortRecs(spillBudget[uint64](per))
	if got.Report.SpillBytes == 0 {
		t.Fatal("budgeted record sort did not spill")
	}
	requireEntriesIdentical(t, comm.U64Codec{}, got, want, "records")
	for pi := range got.Parts {
		for i := range got.Parts[pi] {
			g, w := got.Parts[pi][i], want.Parts[pi][i]
			if !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("part %d entry %d: payload %q != %q", pi, i, g.Payload, w.Payload)
			}
			if !bytes.Equal(g.Payload, recs[g.Proc][g.Index].Payload) {
				t.Fatalf("part %d entry %d: payload does not match origin record", pi, i)
			}
		}
	}
}

// TestSpillSlabBalance: repeated budgeted sorts on one engine must leave
// every node's temporary-memory tracker at zero and every slab back in
// its pool except the result parts — the run former's chunk writes, the
// decode-ahead block slabs and the stream merge all balance their
// retire/recycle accounting even though runs spill mid-batch. Both
// in-memory sources go through the same former, so both are held to it.
func TestSpillSlabBalance(t *testing.T) {
	const procs, per = 4, 3000
	sources := map[string]struct {
		codec comm.Codec[uint64]
		sort  func(e *Engine[uint64], seed uint64) (*Result[uint64], error)
	}{
		"keys": {comm.U64Codec{}, func(e *Engine[uint64], seed uint64) (*Result[uint64], error) {
			return e.Sort(mkParts(dist.Uniform, procs, per, seed))
		}},
		"records": {comm.NewRecordCodec[uint64](comm.U64Codec{}), func(e *Engine[uint64], seed uint64) (*Result[uint64], error) {
			recs := make([][]comm.Record[uint64], procs)
			for i, keys := range mkParts(dist.Uniform, procs, per, seed) {
				pays := dist.Gen{Kind: dist.Uniform, Seed: seed + uint64(i)}.Payloads(per, 24)
				recs[i] = make([]comm.Record[uint64], per)
				for j := range recs[i] {
					recs[i][j] = comm.Record[uint64]{Key: keys[j], Payload: pays[j]}
				}
			}
			return e.SortRecords(recs)
		}},
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine[uint64](Options{Procs: procs, WorkersPerProc: 2,
				MemoryBudget: spillBudget[uint64](per), SpillDir: t.TempDir()}, src.codec)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer e.Close()
			for i := 0; i < 3; i++ {
				gets0, puts0 := poolTraffic(e)
				res, err := src.sort(e, uint64(100+i))
				if err != nil {
					t.Fatalf("sort %d: %v", i, err)
				}
				if res.Report.SpillBytes == 0 || res.Report.SpillReads == 0 {
					t.Fatalf("sort %d: SpillBytes=%d SpillReads=%d, want both > 0",
						i, res.Report.SpillBytes, res.Report.SpillReads)
				}
				kept := int64(0) // result parts leave the pool for good
				for _, part := range res.Parts {
					if len(part) > 0 {
						kept++
					}
				}
				gets1, puts1 := poolTraffic(e)
				if gets, puts := gets1-gets0, puts1-puts0; gets-puts != kept {
					t.Fatalf("sort %d took %d slabs and returned %d, want %d kept as result parts",
						i, gets, puts, kept)
				}
				checkNoLeak(t, e)
			}
		})
	}
}

// TestSpillRetryDifferential wires the spill failpoint sites into the
// PR 8 retry battery: an injected I/O failure at a write-block or
// read-block site mid-spill fails that attempt, the scheduler retries,
// and the retried output must be byte-identical to a clean run with no
// slab accounting left behind by the aborted spill.
func TestSpillRetryDifferential(t *testing.T) {
	const procs, per = 4, 3000
	for _, site := range []string{spill.FpWriteBlock, spill.FpReadBlock} {
		site := site
		t.Run(strings.ReplaceAll(site, "/", "-"), func(t *testing.T) {
			failpoint.Reset()
			t.Cleanup(failpoint.Reset)
			e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2,
				MemoryBudget: spillBudget[uint64](per), SpillDir: t.TempDir()})
			parts := mkParts(dist.RightSkewed, procs, per, 99)
			sched := NewScheduler(e, SortManyOpts{
				Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
			})
			clean, err := sched.RunOne(context.Background(), parts)
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			if clean.Report.SpillBytes == 0 {
				t.Fatal("clean run did not spill; the failpoint would never fire")
			}
			// Nth: 5 lands the failure mid-run — several blocks already
			// written (or read back) when the site trips, so the abort
			// path has real partial state to unwind.
			failpoint.Set(site, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 5})
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
			sameOutput(t, clean, retried)
			checkNoLeak(t, e)
		})
	}
}

// TestSpillScratchLeakSurfaces: a scratch file the sort cannot remove is
// disk nobody will get back, so the sort that finds out fails — even
// though every byte it read was right — instead of dropping the error the
// way the per-run files' closes and removes used to be dropped.
func TestSpillScratchLeakSurfaces(t *testing.T) {
	const procs, per = 4, 3000
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	dir := t.TempDir()
	e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2,
		MemoryBudget: spillBudget[uint64](per), SpillDir: dir})
	parts := mkParts(dist.Uniform, procs, per, 5)

	// The first block read stalls while the scratch files are unlinked
	// under the sort; its descriptors keep working, its removes will not.
	failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeDelay, Count: 4, Delay: 20 * time.Millisecond})
	onFire(spill.FpReadBlock, func() {
		files, _ := filepath.Glob(filepath.Join(dir, "*"))
		for _, f := range files {
			os.Remove(f)
		}
	})
	_, err := e.Sort(parts)
	if !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "remove scratch file") {
		t.Fatalf("sort whose scratch files could not be removed returned %v", err)
	}
	failpoint.Reset()
	checkNoLeak(t, e)
	requireEmptyDir(t, dir)
	got, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("follow-up sort: %v", err)
	}
	requireMatchesReference(t, comm.U64Codec{}, got, parts, true, "follow-up")
}

// TestClassifySpillCorrupt: checksum and structural failures in spill
// files are the input-bytes-are-wrong kind — DataDependent, never
// retried as if transient, and never silently rereadable.
func TestClassifySpillCorrupt(t *testing.T) {
	err := fmt.Errorf("core: spill merge failed: %w", spill.ErrCorrupt)
	if c := Classify(err); c != FailDataDependent {
		t.Fatalf("Classify(ErrCorrupt chain) = %v, want %v", c, FailDataDependent)
	}
	wrapped := &Failure{Class: FailDataDependent, Err: err}
	if c := Classify(fmt.Errorf("outer: %w", error(wrapped))); c != FailDataDependent {
		t.Fatalf("Classify(wrapped Failure) = %v, want %v", c, FailDataDependent)
	}
}

// TestParseMemBudget pins the -mem-budget vocabulary shared by the
// CLIs, the service and the PGXSORT_MEM_BUDGET ablation lane.
func TestParseMemBudget(t *testing.T) {
	good := map[string]int64{
		"":        0,
		"0":       0,
		"1048576": 1 << 20,
		"64k":     64 << 10,
		"64K":     64 << 10,
		"8M":      8 << 20,
		"2g":      2 << 30,
	}
	for in, want := range good {
		got, err := ParseMemBudget(in)
		if err != nil || got != want {
			t.Fatalf("ParseMemBudget(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"-1", "64KB", "x", "1.5G", "k"} {
		if _, err := ParseMemBudget(in); err == nil {
			t.Fatalf("ParseMemBudget(%q) succeeded, want error", in)
		}
	}
}
