package core

import (
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/spill"
)

// TestSpillDescriptorsPerNode: a budgeted sort whose step 1 forms more
// than a thousand chunk runs on every node holds a descriptor per node,
// not per run. The runs used to be a file each, all open at once for the
// merge, and a sort this shape died of "too many open files" under the
// usual ulimit -n 1024 — which the test sets for its duration. While run
// blocks are being read back it samples the process's descriptors under
// SpillDir and the directory itself: at most two scratch files a node
// (a node gives step 1's file back before its exchange takes one, but
// nodes are not in step) and never a directory.
func TestSpillDescriptorsPerNode(t *testing.T) {
	const procs, per, budget = 2, 16000, 1 << 8
	runs := per / Options{MemoryBudget: budget}.step1Chunk(per)
	if runs <= 1000 {
		t.Fatalf("step 1 would form %d runs a node, want > 1000", runs)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	if lim.Cur > 1024 {
		low := lim
		low.Cur = 1024
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim) })
	}

	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	dir := t.TempDir()
	e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2, MemoryBudget: budget, SpillDir: dir})
	parts := mkParts(dist.Uniform, procs, per, 7)

	// The first block reads stall, so the sampler below is certain to look
	// while step 1's merges hold every one of their runs open.
	failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeDelay, Count: 8, Delay: 10 * time.Millisecond})
	var (
		wg                       sync.WaitGroup
		stop                     = make(chan struct{})
		samples, maxFDs, maxEnts int
		sawDir                   string
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if failpoint.Fired(spill.FpReadBlock) == 0 {
				continue
			}
			samples++
			maxFDs = max(maxFDs, openFilesUnder(dir))
			ents, _ := os.ReadDir(dir)
			maxEnts = max(maxEnts, len(ents))
			for _, ent := range ents {
				if ent.IsDir() {
					sawDir = ent.Name()
				}
			}
		}
	}()
	res, err := e.Sort(parts)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("sort with %d chunk runs a node: %v", runs, err)
	}
	requireMatchesReference(t, comm.U64Codec{}, res, parts, "256 B budget")
	if samples == 0 || maxFDs == 0 {
		t.Fatalf("%d samples saw at most %d open scratch files: the sampler missed the sort", samples, maxFDs)
	}
	if maxFDs > 2*procs {
		t.Fatalf("%d descriptors open under SpillDir at once, want at most %d", maxFDs, 2*procs)
	}
	if maxEnts > 2*procs || sawDir != "" {
		t.Fatalf("SpillDir held %d entries at once (directory %q), want at most %d files", maxEnts, sawDir, 2*procs)
	}
	requireEmptyDir(t, dir)
	checkNoLeak(t, e)
}
