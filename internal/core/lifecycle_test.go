package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

// TestEngineCloseLeaksNoGoroutines: a node keeps no goroutine of its own
// but its dispatcher — an idle chan engine adds p, however many workers a
// processor has — and after every kind of operation, on both transports,
// Close leaves nothing running: the per-peer senders, step 1's and TopK's
// chunk goroutines and step 6's helper have all been joined. The same
// operations on an engine whose sorts spill leave no descriptor open
// under SpillDir after Close: the engine's idle scratch files close with
// it.
func TestEngineCloseLeaksNoGoroutines(t *testing.T) {
	const p, workers, per = 4, 8, 3000
	codec := comm.NewRecordCodec[uint64](comm.U64Codec{})
	parts := mkParts(dist.RightSkewed, p, per, 17)
	recs := make([][]comm.Record[uint64], p)
	for i, keys := range parts {
		recs[i] = make([]comm.Record[uint64], len(keys))
		for j, k := range keys {
			recs[i][j] = comm.Record[uint64]{Key: k, Payload: []byte{byte(j)}}
		}
	}
	spool := writeSpool(t, codec, t.TempDir(), parts[0])

	before := runtime.NumGoroutine()
	for _, c := range []struct {
		kind     string
		spilling bool
	}{{transport.KindChan, false}, {transport.KindTCP, false}, {transport.KindChan, true}} {
		kind, spilling, spillDir := c.kind, c.spilling, ""
		opts := Options{Procs: p, WorkersPerProc: workers, Transport: kind}
		if spilling {
			kind, spillDir = "spilling "+kind, t.TempDir()
			opts.MemoryBudget, opts.SpillDir = spillBudget[uint64](per), spillDir
		}
		e, err := NewEngine[uint64](opts, codec)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", kind, err)
		}
		if idle := runtime.NumGoroutine() - before; opts.Transport == transport.KindChan && idle > p {
			t.Errorf("an idle chan engine adds %d goroutines, want at most %d (its dispatchers)", idle, p)
		}
		res, err := e.Sort(parts)
		if err != nil {
			t.Fatalf("%s: Sort: %v", kind, err)
		}
		if spilling && res.Report.SpillBytes == 0 {
			t.Fatalf("%s: Sort did not spill", kind)
		}
		if _, err := e.SortMany(parts, parts); err != nil {
			t.Fatalf("%s: SortMany: %v", kind, err)
		}
		if _, err := e.SortRecords(recs); err != nil {
			t.Fatalf("%s: SortRecords: %v", kind, err)
		}
		if _, err := e.TopK(parts, 10); err != nil {
			t.Fatalf("%s: TopK: %v", kind, err)
		}
		spooled, err := e.SortSpooled(context.Background(), spool)
		if err != nil {
			t.Fatalf("%s: SortSpooled: %v", kind, err)
		}
		drainSpooled(t, codec, spooled)
		if err := spooled.Close(); err != nil {
			t.Fatalf("%s: spooled Close: %v", kind, err)
		}
		if spilling && descriptorsListed() && openFilesUnder(spillDir) == 0 {
			t.Fatalf("%s: no scratch file open before Close: nothing for Close to close", kind)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%s: Close: %v", kind, err)
		}
		if spilling {
			if open := openFilesUnder(spillDir); open != 0 {
				t.Fatalf("%s: %d descriptors open under SpillDir after Close", kind, open)
			}
			requireEmptyDir(t, spillDir)
		}
	}
	requireGoroutinesBack(t, before)
}

// requireGoroutinesBack waits up to 5 s for the goroutine count to fall
// back to before, then fails with every goroutine's stack.
func requireGoroutinesBack(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
