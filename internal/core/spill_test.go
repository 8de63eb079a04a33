package core

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
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
// its pool — the run former's chunk writes, the decoded block slabs
// and the stream merge all balance their retire/recycle accounting even
// though runs spill mid-batch, and a result part is no pool slab but its
// own exact-size allocation (cap == len), so the caller holds what
// Report.ResidentBytes says. Both in-memory sources go through the same
// former, so both are held to it.
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
				for p, part := range res.Parts {
					if cap(part) != len(part) {
						t.Fatalf("sort %d: part %d holds %d entries in a slab of %d", i, p, len(part), cap(part))
					}
				}
				gets1, puts1 := poolTraffic(e)
				if gets, puts := gets1-gets0, puts1-puts0; gets != puts {
					t.Fatalf("sort %d took %d slabs and returned %d", i, gets, puts)
				}
				checkNoLeak(t, e)
			}
		})
	}
}

// TestSpillRetryDifferential wires the spill failpoint sites into the
// PR 8 retry battery: an injected I/O failure at a write-block or
// read-block site mid-spill fails that attempt, the scheduler retries,
// and the retried output — key columns and entries with origins — must be
// byte-identical to a clean run with no
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
			clean, cleanRep, err := sched.RunOne(context.Background(), parts)
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			if cleanRep.SpillBytes == 0 {
				t.Fatal("clean run did not spill; the failpoint would never fire")
			}
			// Nth: 5 lands the failure mid-run — several blocks already
			// written (or read back) when the site trips, so the abort
			// path has real partial state to unwind.
			retryBothWays(t, e, sched, parts, clean, site, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 5})
		})
	}
}

// TestSpillScratchLeakSurfaces: a scratch file never outlives the process
// on disk. Where it is opened unnamed (Linux), SpillDir shows nothing even
// while its creation stalls, and the sort goes on. Where it is named for
// the moment between create and unlink, a name removed from under it in
// that moment means it cannot be unlinked: disk nobody would get back,
// so the stage that created it closes it and fails (spill's
// TestNewScratchReportsLeak holds that path to it directly). After that,
// SpillDir holds no entry at any instant a sampler looks during spilling
// sorts: every file the sorts use exists only as a descriptor.
func TestSpillScratchLeakSurfaces(t *testing.T) {
	const procs, per = 4, 3000
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	dir := t.TempDir()
	e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2,
		MemoryBudget: spillBudget[uint64](per), SpillDir: dir})
	parts := mkParts(dist.Uniform, procs, per, 5)

	failpoint.Set(spill.FpCreateScratch, failpoint.Schedule{Mode: failpoint.ModeDelay, Delay: 20 * time.Millisecond})
	named := make(chan bool, 1)
	onFire(spill.FpCreateScratch, func() {
		files, _ := filepath.Glob(filepath.Join(dir, "*"))
		for _, f := range files {
			os.Remove(f)
		}
		named <- len(files) > 0
	})
	_, err := e.Sort(parts)
	if <-named {
		var fail *Failure
		if !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "unlink scratch file") ||
			!errors.As(err, &fail) || fail.Stage != StageLocalSort {
			t.Fatalf("sort whose scratch file could not be unlinked returned %v", err)
		}
	} else if err != nil {
		t.Fatalf("sort whose scratch file never had a name returned %v", err)
	}
	failpoint.Reset()
	checkNoLeak(t, e)
	requireEmptyDir(t, dir)
	// A node holds one scratch at a time, idle once its sort is done; a
	// node that failed closed its own.
	most := procs
	if err != nil {
		most--
	}
	if open := openFilesUnder(dir); open > most {
		t.Fatalf("%d scratch files open after the first sort, want at most %d", open, most)
	}
	got, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("follow-up sort: %v", err)
	}
	requireMatchesReference(t, comm.U64Codec{}, got, parts, "follow-up")

	// One idle file a node: no sort below creates one, so no name can
	// appear even for the moment between a create and its unlink.
	held := make([]*spill.Scratch, procs)
	for i := range held {
		if held[i], err = e.scratch.Take(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range held {
		e.scratch.Give(s)
	}
	stop := make(chan struct{})
	sampled := make(chan [2]int)
	go func() {
		samples, seen := 0, 0
		for {
			select {
			case <-stop:
				sampled <- [2]int{samples, seen}
				return
			default:
			}
			ents, _ := os.ReadDir(dir)
			samples++
			seen = max(seen, len(ents))
		}
	}()
	for i := 0; i < 3; i++ {
		if got, err = e.Sort(parts); err != nil {
			t.Fatalf("sampled sort %d: %v", i, err)
		}
		if got.Report.SpillBytes == 0 {
			t.Fatalf("sampled sort %d did not spill", i)
		}
	}
	close(stop)
	if s := <-sampled; s[0] == 0 || s[1] != 0 {
		t.Fatalf("%d samples of SpillDir during spilling sorts saw up to %d entries, want none", s[0], s[1])
	}
}

// crashChildEnv, set to a SpillDir, makes TestSpillCrashLeavesNoScratch
// the child it starts: a process that spills into that directory and is
// killed there.
const crashChildEnv = "PGXSORT_TEST_CRASH_SPILL_DIR"

// TestSpillCrashLeavesNoScratch: a process killed with SIGKILL in the
// middle of a spilling sort leaves nothing in SpillDir — its scratch
// files have had no name since they were created, so the kernel frees
// them with the process and no sweep is needed. The test binary runs
// itself as the child: a budgeted sort whose block reads stall, which
// reports once it is reading its runs back; the parent kills it there.
func TestSpillCrashLeavesNoScratch(t *testing.T) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSpillCrashLeavesNoScratch$", "-test.count=1")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer cmd.Process.Kill()
	spilled := make(chan bool, 1)
	go func() {
		lines := bufio.NewScanner(out)
		for lines.Scan() {
			if lines.Text() == "spilled" {
				spilled <- true
				return
			}
		}
		spilled <- false
	}()
	select {
	case ok := <-spilled:
		if !ok {
			t.Fatal("the child exited before it spilled")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the child did not spill within 60 s")
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	requireEmptyDir(t, dir)
}

// crashChild is TestSpillCrashLeavesNoScratch's child: it starts a sort
// that spills under dir, says "spilled" once the sort is reading runs
// back — its blocks on disk, every read stalled — and waits to be killed.
func crashChild(dir string) {
	const procs, per = 2, 20000
	e, err := NewEngine[uint64](Options{Procs: procs, WorkersPerProc: 2,
		MemoryBudget: spillBudget[uint64](per), SpillDir: dir}, comm.U64Codec{})
	if err != nil {
		fmt.Println(err)
		os.Exit(2)
	}
	failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeDelay, Count: -1, Delay: time.Minute})
	go e.Sort(mkParts(dist.Uniform, procs, per, 3))
	for failpoint.Fired(spill.FpReadBlock) == 0 {
		time.Sleep(time.Millisecond)
	}
	fmt.Println("spilled")
	time.Sleep(time.Minute)
	os.Exit(3) // never killed
}

// descriptorsListed reports whether the system lists this process's
// descriptors (/proc/self/fd), the only place a scratch file shows.
func descriptorsListed() bool {
	_, err := os.Stat("/proc/self/fd")
	return err == nil
}

// openFilesUnder counts this process's descriptors that are open on files
// under dir, unlinked ones included; where the system does not list them
// (no /proc/self/fd) it counts none.
func openFilesUnder(dir string) int {
	return len(scratchDescriptors(dir))
}

// scratchDescriptors lists, as /proc/self/fd paths, this process's
// descriptors open on files under dir: a scratch file has no other path.
func scratchDescriptors(dir string) []string {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	var paths []string
	for _, fd := range fds {
		path := filepath.Join("/proc/self/fd", fd.Name())
		if target, err := os.Readlink(path); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			paths = append(paths, path)
		}
	}
	return paths
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

// TestBudgetBoundsTempPeak: Options.MemoryBudget is a bound on every
// node's temporary memory for a uint64 sort by ref at p = 4, and the spill
// tier moves each key once per stage the budget forces — 16 bytes, the
// ref. At 8 B a key (the benchmark's spill_uniform_u64 shape, at 2^16 and
// at 2^18 keys) a node's ref sort, 32 B a key, fits the budget exactly:
// step 1 spills nothing and only the exchange goes through the scratch
// file. At 4 B a key step 1 cannot sort its share in one piece, so both
// stages spill. At 10.3 B a key, 1.03 times a node's share of 40-byte
// entries, the exchange must still spill: a resident merge by ref holds 56
// bytes a key while it writes the part. A key-column job
// (Scheduler.RunOne) is held to the same.
func TestBudgetBoundsTempPeak(t *testing.T) {
	const procs = 4
	for _, c := range []struct {
		n      int
		perKey float64
		keys   bool
	}{{1 << 16, 8, false}, {1 << 18, 4, false}, {1 << 18, 8, false}, {1 << 16, 8, true}, {1 << 16, 10.3, false}} {
		t.Run(fmt.Sprintf("n=%d/%gB-a-key/keys=%v", c.n, c.perKey, c.keys), func(t *testing.T) {
			budget, per := int64(float64(c.n)*c.perKey), c.n/procs
			flat := dist.Gen{Kind: dist.Uniform, Seed: 1, Domain: 1 << 62}.Keys(c.n)
			parts := make([][]uint64, procs)
			for p := range parts {
				parts[p] = flat[p*per : (p+1)*per]
			}
			e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2, MemoryBudget: budget, SpillDir: t.TempDir()})
			var rep Report
			if c.keys {
				var err error
				if _, rep, err = NewScheduler(e, SortManyOpts{}).RunOne(context.Background(), parts); err != nil {
					t.Fatal(err)
				}
			} else {
				res, err := e.Sort(parts)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesReference(t, comm.U64Codec{}, res, parts, "budgeted")
				rep = res.Report
			}
			for i, nr := range rep.PerNode {
				if nr.TempPeakBytes > budget {
					t.Errorf("node %d peaked at %d temporary bytes, %.2fx the %d-byte budget",
						i, nr.TempPeakBytes, float64(nr.TempPeakBytes)/float64(budget), budget)
				}
			}
			stages := int64(1) // the exchange: 40 B an entry never fits
			if int64(per)*2*refBytes > budget {
				stages++ // step 1's chunks
			}
			if want := stages * refBytes * int64(c.n); rep.SpillBytes != want {
				t.Errorf("spilled %d bytes, %.1f a key; want %d, a ref a key in each of %d stages",
					rep.SpillBytes, float64(rep.SpillBytes)/float64(c.n), want, stages)
			}
			checkNoLeak(t, e)
		})
	}
}
