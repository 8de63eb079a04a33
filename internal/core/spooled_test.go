package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
)

// appendKeyBytes appends k's exact canonical wire form: the VarCodec
// framing for variable-width keys, the fixed KeySize form otherwise.
// Equal keys encode identically, so concatenations compare sorted key
// sequences byte for byte.
func appendKeyBytes[K cmp.Ordered](codec comm.Codec[K], dst []byte, k K) []byte {
	if vc, ok := codec.(comm.VarCodec[K]); ok {
		return vc.AppendKey(dst, k)
	}
	n := len(dst)
	dst = append(dst, make([]byte, codec.KeySize())...)
	codec.PutKey(dst[n:], k)
	return dst
}

// writeSpool lands keys in a spool of e's in arrival order, the way the
// streaming ingress does — its runs formed as e.NewSpool forms them — in
// a scratch file of a pool of its own under dir: apart from any engine's
// SpillDir, so what a test finds there is the sort's. The spool is closed
// when the test ends.
func writeSpool[K cmp.Ordered](t *testing.T, e *Engine[K], dir string, keys []K) *Spool[K] {
	t.Helper()
	pool := spill.NewScratchPool(dir)
	t.Cleanup(pool.Close)
	budget := e.spoolBudget()
	sp, err := newSpool(pool, e.spoolFormer(context.Background(), budget), spoolChunk[K](budget))
	if err != nil {
		t.Fatalf("newSpool: %v", err)
	}
	t.Cleanup(func() { sp.Close() })
	if err := sp.Append(keys); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := sp.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return sp
}

// drainSpooled drains the stream into the canonical concatenated key
// encoding.
func drainSpooled[K cmp.Ordered](t *testing.T, codec comm.Codec[K], res *SpooledResult[K]) []byte {
	t.Helper()
	var out []byte
	n := 0
	for {
		batch, err := res.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(batch) == 0 {
			break
		}
		for _, e := range batch {
			out = appendKeyBytes(codec, out, e.Key)
		}
		n += len(batch)
	}
	if n != res.N {
		t.Fatalf("stream yielded %d entries, result promised %d", n, res.N)
	}
	return out
}

// residentKeyBytes sorts keys through the resident pipeline and encodes
// the globally sorted key sequence — the byte-identity reference.
func residentKeyBytes[K cmp.Ordered](t *testing.T, codec comm.Codec[K], keys []K, procs int) []byte {
	t.Helper()
	e, err := NewEngine[K](Options{Procs: procs, WorkersPerProc: 2}, codec)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	parts := make([][]K, procs)
	per := (len(keys) + procs - 1) / procs
	for i := range parts {
		lo := min(i*per, len(keys))
		hi := min(lo+per, len(keys))
		parts[i] = keys[lo:hi]
	}
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	var out []byte
	for _, p := range res.Parts {
		for _, en := range p {
			out = appendKeyBytes(codec, out, en.Key)
		}
	}
	return out
}

// spooledCase runs one SortSpooled end to end under a tiny budget and
// checks byte-identity, the tracker-accounted peak bound, and scratch
// cleanup.
func spooledCase[K cmp.Ordered](t *testing.T, codec comm.Codec[K], keys []K) {
	t.Helper()
	const procs = 3
	spillDir := t.TempDir()

	eb := int64(entryBytes[K]())
	// A budget around a tenth of the dataset forces multi-run externals.
	budget := int64(len(keys)) * eb / 10
	if budget < 2*minSpoolChunkEntries*eb {
		budget = 2 * minSpoolChunkEntries * eb
	}
	e, err := NewEngine[K](Options{
		Procs: procs, WorkersPerProc: 2,
		MemoryBudget: budget, SpillDir: spillDir,
	}, codec)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	spool := writeSpool(t, e, t.TempDir(), keys)

	res, err := e.SortSpooled(context.Background(), spool)
	if err != nil {
		t.Fatalf("SortSpooled: %v", err)
	}
	got := drainSpooled(t, codec, res)
	if err := res.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := residentKeyBytes(t, codec, keys, procs)
	if !bytes.Equal(got, want) {
		t.Fatalf("spooled output diverges from resident sort (%d vs %d bytes)", len(got), len(want))
	}

	// The whole point: temp peak scales with p x budget (chunk + scratch
	// per node, plus decoded block slabs and the merge batch as fixed
	// slack), and stays strictly under the dataset's resident size.
	peak := res.Report.TempPeakBytes
	ceiling := 2*int64(procs)*budget + 1<<20
	dataset := int64(len(keys)) * eb
	if peak == 0 || peak > ceiling {
		t.Fatalf("TempPeakBytes = %d, want in (0, %d] (dataset is %d bytes)",
			peak, ceiling, dataset)
	}
	if peak >= dataset {
		t.Fatalf("TempPeakBytes = %d not under the %d-byte dataset — nothing was out of core",
			peak, dataset)
	}
	if res.Report.SpillBytes == 0 || res.Report.SpillReads == 0 {
		t.Fatalf("spooled sort reports SpillBytes=%d SpillReads=%d, want both > 0",
			res.Report.SpillBytes, res.Report.SpillReads)
	}
	if res.Report.MergePath != "spooled-kway+spill" {
		t.Fatalf("MergePath = %q", res.Report.MergePath)
	}

	// Scratch is gone; the caller-owned spool is not.
	requireEmptyDir(t, spillDir)
	if spool.Len() != len(keys) {
		t.Fatalf("spool input should remain caller-owned: %d keys", spool.Len())
	}
}

// TestSortSpooled checks the out-of-core spooled path against the
// resident pipeline for every key type, including the float64 total
// order's hard cases.
func TestSortSpooled(t *testing.T) {
	const n = 50000
	rng := dist.NewRNG(7)
	t.Run("uint64", func(t *testing.T) {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() % 5000 // heavy ties
		}
		spooledCase[uint64](t, comm.U64Codec{}, keys)
	})
	t.Run("float64", func(t *testing.T) {
		keys := make([]float64, n)
		for i := range keys {
			switch i % 97 {
			case 0:
				keys[i] = math.NaN()
			case 1:
				keys[i] = math.Inf(1)
			case 2:
				keys[i] = math.Copysign(0, -1)
			default:
				keys[i] = float64(int64(rng.Uint64()%2000) - 1000)
			}
		}
		spooledCase[float64](t, comm.F64Codec{}, keys)
	})
	t.Run("string", func(t *testing.T) {
		keys := make([]string, n)
		alpha := "abcdefgh"
		for i := range keys {
			// Shared 8-byte prefixes exercise the inexact-norm fallback.
			b := []byte("prefixxx____")
			for j := 8; j < len(b); j++ {
				b[j] = alpha[rng.Uint64()%8]
			}
			keys[i] = string(b)
		}
		spooledCase[string](t, comm.StringCodec{}, keys)
	})
}

// TestSortSpooledEmpty covers the zero-entry upload.
func TestSortSpooledEmpty(t *testing.T) {
	e, err := NewEngine[uint64](Options{Procs: 2}, comm.U64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spool := writeSpool(t, e, t.TempDir(), []uint64(nil))
	res, err := e.SortSpooled(context.Background(), spool)
	if err != nil {
		t.Fatalf("SortSpooled: %v", err)
	}
	batch, err := res.Next()
	if err != nil || len(batch) != 0 {
		t.Fatalf("empty spool yielded %d entries, err %v", len(batch), err)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunOneSpooledRetry arms the block-read failpoint on a formed
// spool of more runs than one merge reads: the first attempt dies in its
// merge pass, on the job's first read, the scheduler classifies it
// Transient and re-runs only the merge against the still-open spool, and
// the second attempt streams the correct bytes.
func TestRunOneSpooledRetry(t *testing.T) {
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	const site = spill.FpReadBlock

	const n = 20000
	rng := dist.NewRNG(11)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	e, err := NewEngine[uint64](Options{
		Procs: 2, WorkersPerProc: 2,
		MemoryBudget: 64 << 10, SpillDir: t.TempDir(),
	}, comm.U64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spool := writeSpool(t, e, t.TempDir(), keys)
	if len(spool.runs) <= spoolMergeFanIn {
		t.Fatalf("the spool holds %d runs: no merge pass to fail", len(spool.runs))
	}
	formed := spool.f.spillBytes.Load()
	s := NewScheduler(e, SortManyOpts{Retry: RetryPolicy{MaxAttempts: 3}})
	failpoint.Set(site, failpoint.Schedule{Mode: failpoint.ModeError})

	res, err := s.RunOneSpooled(context.Background(), spool)
	if err != nil {
		t.Fatalf("RunOneSpooled: %v", err)
	}
	got := drainSpooled[uint64](t, comm.U64Codec{}, res)
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Report.Attempts < 2 {
		t.Fatalf("Attempts = %d, want >= 2 (failpoint should have fired)", res.Report.Attempts)
	}
	if fired := failpoint.Fired(site); fired < 1 {
		t.Fatalf("failpoint fired %d times", fired)
	}
	if rep := res.Report; rep.SpillBytes != 2*formed {
		t.Fatalf("SpillBytes = %d, want the spool's %d bytes and one pass's rewrite of them", rep.SpillBytes, formed)
	}
	want := residentKeyBytes[uint64](t, comm.U64Codec{}, keys, 2)
	if !bytes.Equal(got, want) {
		t.Fatal("retried spooled sort diverges from resident sort")
	}

	// The admission slot must be free again after Close: a second run
	// through the same scheduler completes.
	res2, err := s.RunOneSpooled(context.Background(), spool)
	if err != nil {
		t.Fatalf("second RunOneSpooled: %v", err)
	}
	drainSpooled[uint64](t, comm.U64Codec{}, res2)
	if err := res2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunOneSpooledCancelledContext calls RunOneSpooled with a dead
// context and a free admission slot, many times: every call must fail
// with the context's error and admit nothing. A bare select over the free
// slot and the done context would admit about half of them.
func TestRunOneSpooledCancelledContext(t *testing.T) {
	e, err := NewEngine[uint64](Options{
		Procs: 2, WorkersPerProc: 2,
		MemoryBudget: 64 << 10, SpillDir: t.TempDir(),
	}, comm.U64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	spool := writeSpool(t, e, t.TempDir(), []uint64{3, 1, 2})
	s := NewScheduler(e, SortManyOpts{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		res, err := s.RunOneSpooled(ctx, spool)
		if res != nil {
			res.Close()
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: err = %v, want context.Canceled", i, err)
		}
	}
	if peak := s.PeakInflight(); peak != 0 {
		t.Fatalf("PeakInflight = %d after calls under a cancelled context, want 0", peak)
	}
}

// TestEngineSpool lands keys through Engine.NewSpool, a batch at a
// time as the streaming ingress does, and sorts the spool twice. The
// spool is a scratch file of the engine's own pool: SpillDir lists
// nothing while it is open, and Close gives its file back to the pool
// for the next stage, so no descriptor is left but the pool's. Its blocks
// are sized by the engine's budget, the env-resolved one included. The
// report times both of a spooled job's steps: run formation (as the keys
// landed) and the final merge (passes and streaming) are each > 0 and
// together no more than Total. Its 25 runs take one merge pass: the spool
// writes its runs, 16 B a key, the pass reads them once and writes them
// once more, and the final merge reads that once, so SpillBytes and
// SpillReads are both 32 B a key.
func TestEngineSpool(t *testing.T) {
	const n, procs = 20000, 2
	t.Setenv(MemBudgetEnv, "64k")
	dir := t.TempDir()
	e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2, SpillDir: dir})
	if got := spoolBlockBytes(e.spoolBudget()); got != 4<<10 {
		t.Fatalf("an engine budgeted 64k by %s spools in %d-byte blocks, want %d", MemBudgetEnv, got, 4<<10)
	}
	keys := dist.Gen{Kind: dist.RightSkewed, Seed: 29}.Keys(n)
	sp, err := e.NewSpool()
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for lo := 0; lo < n; lo += 4096 {
		if err := sp.Append(keys[lo:min(lo+4096, n)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.SortSpooled(context.Background(), sp); err == nil {
		t.Fatal("SortSpooled took an unfinished spool")
	}
	if err := sp.Finish(); err != nil {
		t.Fatal(err)
	}
	if sp.Len() != n {
		t.Fatalf("spool holds %d keys, want %d", sp.Len(), n)
	}
	want := residentKeyBytes[uint64](t, comm.U64Codec{}, keys, procs)
	for i := 0; i < 2; i++ {
		res, err := e.SortSpooled(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		requireEmptyDir(t, dir)
		got := drainSpooled[uint64](t, comm.U64Codec{}, res)
		res.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("sort %d of the spool diverges from the resident sort", i)
		}
		rep := res.Report
		local, merge := rep.Steps[StepLocalSort], rep.Steps[StepFinalMerge]
		if local <= 0 || merge <= 0 || local+merge > rep.Total {
			t.Fatalf("sort %d: local sort %v + final merge %v against Total %v, want both > 0 and the sum <= Total",
				i, local, merge, rep.Total)
		}
		if rep.SpillBytes != 32*n || rep.SpillReads != 32*n {
			t.Fatalf("sort %d: SpillBytes %d, SpillReads %d: want the spool's runs and one pass's, %d bytes, each written and read once",
				i, rep.SpillBytes, rep.SpillReads, 32*n)
		}
	}
	held := openFilesUnder(dir)
	sp.Close()
	sp.Close()
	if _, err := e.SortSpooled(context.Background(), sp); err == nil {
		t.Fatal("SortSpooled took a closed spool")
	}
	requireEmptyDir(t, dir)
	if descriptorsListed() && openFilesUnder(dir) != held {
		t.Fatalf("%d descriptors under SpillDir after the spool closed, want the pool's %d", openFilesUnder(dir), held)
	}
}

// spooledProvenance lands keys in a spool of a 64k-budgeted engine in
// uneven batches — many runs, and a merge pass over them — and streams
// its sort: every entry must come from node 0 with the key its index
// names in keys, every index must come once, and equal keys must leave
// in arrival order.
func spooledProvenance[K cmp.Ordered](t *testing.T, codec comm.Codec[K], keys []K) {
	t.Helper()
	e, err := NewEngine[K](Options{Procs: 2, WorkersPerProc: 2, MemoryBudget: 64 << 10, SpillDir: t.TempDir()}, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sp, err := e.NewSpool()
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for lo, step := 0, 1; lo < len(keys); lo, step = lo+step, step*3%1021+1 {
		if err := sp.Append(keys[lo:min(lo+step, len(keys))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(sp.runs) <= spoolMergeFanIn {
		t.Fatalf("the spool holds %d runs: no merge pass", len(sp.runs))
	}
	res, err := e.SortSpooled(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	seen := make([]bool, len(keys))
	var prev []byte
	prevIndex := -1
	for {
		batch, err := res.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		for _, en := range batch {
			key := appendKeyBytes(codec, nil, en.Key)
			if en.Proc != 0 || int(en.Index) >= len(keys) || !bytes.Equal(appendKeyBytes(codec, nil, keys[en.Index]), key) {
				t.Fatalf("entry (%v, proc %d, index %d) does not name its key in the input", en.Key, en.Proc, en.Index)
			}
			if seen[en.Index] {
				t.Fatalf("index %d streamed twice", en.Index)
			}
			seen[en.Index] = true
			if bytes.Equal(key, prev) && int(en.Index) < prevIndex {
				t.Fatalf("equal keys %v left out of arrival order: index %d after %d", en.Key, en.Index, prevIndex)
			}
			prev, prevIndex = key, int(en.Index)
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("index %d never streamed", i)
	}
}

// TestSpooledProvenanceIsArrival: a spool is one input, its keys stamped
// by arrival, for every key type — the float64 total order's NaNs of both
// signs, zeros and infinities included.
func TestSpooledProvenanceIsArrival(t *testing.T) {
	const n = 30000
	rng := dist.NewRNG(41)
	t.Run("uint64", func(t *testing.T) {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() % 1000
		}
		spooledProvenance[uint64](t, comm.U64Codec{}, keys)
	})
	t.Run("float64", func(t *testing.T) {
		specials := []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		keys := make([]float64, n)
		for i := range keys {
			if r := rng.Uint64() % 16; r < uint64(len(specials)) {
				keys[i] = specials[r]
			} else {
				keys[i] = float64(int64(rng.Uint64()%200) - 100)
			}
		}
		spooledProvenance[float64](t, comm.F64Codec{}, keys)
	})
	t.Run("string", func(t *testing.T) {
		keys := make([]string, n)
		for i := range keys {
			b := []byte("prefixxx__")
			for j := 8; j < len(b); j++ {
				b[j] = "abcd"[rng.Uint64()%4]
			}
			keys[i] = string(b)
		}
		spooledProvenance[string](t, comm.StringCodec{}, keys)
	})
}

// TestSortSpooledReadsRunsOnce: a spool of no more runs than one merge
// reads is already what the final merge wants, so SortSpooled takes no
// scratch file, writes nothing and reads each run's bytes exactly once —
// its SpillBytes are the spool's and its SpillReads the same bytes.
func TestSortSpooledReadsRunsOnce(t *testing.T) {
	const n = 5000
	dir := t.TempDir()
	e := newTestEngine(t, Options{Procs: 2, WorkersPerProc: 2, MemoryBudget: 64 << 10, SpillDir: dir})
	keys := dist.Gen{Kind: dist.Uniform, Seed: 37}.Keys(n)
	sp := writeSpool(t, e, t.TempDir(), keys)
	if runs := len(sp.runs); runs < 2 || runs > spoolMergeFanIn {
		t.Fatalf("the spool holds %d runs, want 2 to %d", runs, spoolMergeFanIn)
	}
	formed := sp.f.spillBytes.Load()
	if formed != 16*n {
		t.Fatalf("the spool wrote %d bytes, want its runs' %d", formed, 16*n)
	}
	res, err := e.SortSpooled(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if open := openFilesUnder(dir); open != 0 {
		t.Fatalf("the final merge holds %d scratch files", open)
	}
	got := drainSpooled[uint64](t, comm.U64Codec{}, res)
	res.Close()
	if want := residentKeyBytes[uint64](t, comm.U64Codec{}, keys, 2); !bytes.Equal(got, want) {
		t.Fatal("spooled sort diverges from the resident sort")
	}
	if rep := res.Report; rep.SpillBytes != formed || rep.SpillReads != formed {
		t.Fatalf("SpillBytes %d, SpillReads %d: want the spool's %d bytes, written once and read once", rep.SpillBytes, rep.SpillReads, formed)
	}
}

// TestSpoolFormationErrorExits takes a spool out through the exits of its
// run formation: a block write failing as Append fills a chunk, or as
// Finish writes the last partial one, and a spool past what an origin
// index can address. The failure comes back from the call that hit it
// and from every later Append and Finish, SortSpooled refuses the spool,
// and Close leaves every slab back in its pool, the staging freed and
// SpillDir empty.
func TestSpoolFormationErrorExits(t *testing.T) {
	const chunkKeys = 64 << 10 / 80 // spoolChunk at a 64k budget
	keys := dist.Gen{Kind: dist.Uniform, Seed: 47}.Keys(3*chunkKeys + 100)
	exits := map[string]struct {
		is   error
		fail func(sp *Spool[uint64]) error
	}{
		"append": {failpoint.ErrInjected, func(sp *Spool[uint64]) error {
			failpoint.Set(spill.FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 5})
			return sp.Append(keys)
		}},
		"finish": {failpoint.ErrInjected, func(sp *Spool[uint64]) error {
			if err := sp.Append(keys); err != nil {
				t.Fatal(err)
			}
			failpoint.Set(spill.FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModeError})
			return sp.Finish()
		}},
		"too-large": {ErrShareTooLarge, func(sp *Spool[uint64]) error {
			if err := sp.Append(keys[:10]); err != nil {
				t.Fatal(err)
			}
			sp.n = math.MaxUint32 - 1 // as if that many had landed
			return sp.Append(keys[10:12])
		}},
	}
	for name, exit := range exits {
		t.Run(name, func(t *testing.T) {
			failpoint.Reset()
			t.Cleanup(failpoint.Reset)
			dir := t.TempDir()
			e := newTestEngine(t, Options{Procs: 2, MemoryBudget: 64 << 10, SpillDir: dir})
			if got := spoolChunk[uint64](e.spoolBudget()); got != chunkKeys {
				t.Fatalf("a spool chunk holds %d keys, want %d", got, chunkKeys)
			}
			sp, err := e.NewSpool()
			if err != nil {
				t.Fatal(err)
			}
			err = exit.fail(sp)
			failpoint.Reset()
			if !errors.Is(err, exit.is) {
				t.Fatalf("formation ended in %v, want %v", err, exit.is)
			}
			if again := sp.Append(keys[:1]); !errors.Is(again, exit.is) {
				t.Fatalf("Append after the failure: %v", again)
			}
			if again := sp.Finish(); !errors.Is(again, exit.is) {
				t.Fatalf("Finish after the failure: %v", again)
			}
			if _, err := e.SortSpooled(context.Background(), sp); err == nil {
				t.Fatal("SortSpooled took a failed spool")
			}
			sp.Close()
			if gets, _, puts := sp.f.pool.Stats(); gets != puts {
				t.Fatalf("the spool took %d entry slabs and returned %d", gets, puts)
			}
			if gets, _, puts := sp.f.refPool.Stats(); gets != puts {
				t.Fatalf("the spool took %d ref slabs and returned %d", gets, puts)
			}
			if live := sp.f.tracker.Live(); live != 0 {
				t.Fatalf("tracker.Live = %d after Close", live)
			}
			requireEmptyDir(t, dir)
		})
	}
}

// flipScratchByte corrupts the first block of the job's scratch file
// under spillDir once that block and a few after it have landed, and
// returns the descriptor path it went through; "" means not yet. The file
// has no name, so it is reopened through the job's own descriptor.
func flipScratchByte(spillDir string) string {
	files := scratchDescriptors(spillDir)
	if len(files) == 0 {
		return ""
	}
	f, err := os.OpenFile(files[0], os.O_RDWR, 0)
	if err != nil {
		return ""
	}
	defer f.Close()
	// Blocks are 4 KiB here and land in one write each: with three behind
	// it and its own bytes no longer a hole, the first is complete.
	head := make([]byte, 16)
	if st, err := f.Stat(); err != nil || st.Size() < 4*4096 {
		return ""
	}
	if _, err := f.ReadAt(head, 0); err != nil || bytes.Equal(head, make([]byte, 16)) {
		return ""
	}
	head[5] ^= 0x40
	if _, err := f.WriteAt(head[5:6], 5); err != nil {
		return ""
	}
	return files[0]
}

// onFire runs fn, once, when site first fires.
func onFire(site string, fn func()) {
	go func() {
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if failpoint.Fired(site) > 0 {
				fn()
				return
			}
		}
	}()
}

// atMergePass runs fn while a spooled job is entering its second merge
// pass: the pass's scratch file is the second the job creates, and its
// creation stalls long enough for fn to take effect inside the pass.
func atMergePass(fn func()) {
	failpoint.Set(spill.FpCreateScratch, failpoint.Schedule{Mode: failpoint.ModeDelay, Nth: 2, Delay: 20 * time.Millisecond})
	onFire(spill.FpCreateScratch, fn)
}

// requireEmptyDir fails the test if anything is left under dir.
func requireEmptyDir(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d entries left under %s, first %q", len(left), dir, left[0].Name())
	}
}

// TestSpooledErrorExits drives a spooled job out through each of its error
// exits — an injected block-read failure with retries off, a context
// cancelled mid pass, a run corrupted on disk between the pass that wrote
// it and the pass that reads it, and a read error mid-stream followed by
// Close — and the scratch files' own: one that cannot be created, a block
// write failing and a cancellation with runs sealed and unopened, each
// during the first merge pass, which reads the spool's runs, and during
// the second, which holds the first's file, plus a block read failing in
// one (TestMergePassErrorExits looks inside a pass that fails, at the
// former's pools). The spool is formed before the job and holds 74 runs,
// so the job runs two passes (74 → 10 → 2) before its final merge. After
// each, the job must hold nothing: SpillDir is empty, the caller-owned
// spool is still there, the error classifies as failure.go documents, and
// the scheduler's only admission slot is free, so a follow-up job through
// it completes byte-correct. A spool's own exits, in its run formation,
// are TestSpoolFormationErrorExits'.
func TestSpooledErrorExits(t *testing.T) {
	const n, procs = 60000, 2
	const site = spill.FpReadBlock
	rng := dist.NewRNG(23)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() % 3000
	}
	codec := comm.U64Codec{}
	want := residentKeyBytes[uint64](t, codec, keys, procs)

	// Each case returns the error its exit produced.
	cases := []struct {
		name  string
		class FailureClass
		is    error
		run   func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], spillDir string) error
	}{
		{"read-failure", FailTransient, failpoint.ErrInjected,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				failpoint.Set(site, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 3})
				_, err := s.RunOneSpooled(context.Background(), in)
				return err
			}},
		{"cancel", FailUnknown, context.Canceled,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				// Every block read stalls, so the cancel lands while the
				// first pass still reads the spool's runs.
				failpoint.Set(site, failpoint.Schedule{Mode: failpoint.ModeDelay, Count: -1, Delay: 2 * time.Millisecond})
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(15*time.Millisecond, cancel)
				_, err := s.RunOneSpooled(ctx, in)
				return err
			}},
		{"corrupt-run", FailDataDependent, spill.ErrCorrupt,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], spillDir string) error {
				if !descriptorsListed() {
					t.Skip("no /proc/self/fd: an unlinked scratch file cannot be reached")
				}
				// Slow reads leave a wide window between the first pass's
				// first run landing on disk and the second pass opening it.
				failpoint.Set(site, failpoint.Schedule{Mode: failpoint.ModeDelay, Count: -1, Delay: 2 * time.Millisecond})
				stop := make(chan struct{})
				cut := make(chan string, 1)
				go func() {
					defer close(cut)
					for {
						if path := flipScratchByte(spillDir); path != "" {
							cut <- path
							return
						}
						select {
						case <-stop:
							return
						case <-time.After(time.Millisecond):
						}
					}
				}()
				_, err := s.RunOneSpooled(context.Background(), in)
				close(stop)
				if path := <-cut; path == "" {
					t.Fatal("no scratch block was corrupted before the job ended")
				}
				return err
			}},
		// The scratch files' own exits. The first file the job creates is
		// its first pass's, the second its second pass's, and whatever is
		// armed while that creation stalls lands in the second pass.
		{"scratch-create", FailTransient, failpoint.ErrInjected,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				failpoint.Set(spill.FpCreateScratch, failpoint.Schedule{Mode: failpoint.ModeError})
				_, err := s.RunOneSpooled(context.Background(), in)
				return err
			}},
		{"scratch-create-pass", FailTransient, failpoint.ErrInjected,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				failpoint.Set(spill.FpCreateScratch, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 2})
				_, err := s.RunOneSpooled(context.Background(), in)
				return err
			}},
		{"block-write", FailTransient, failpoint.ErrInjected,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				failpoint.Set(spill.FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 30})
				_, err := s.RunOneSpooled(context.Background(), in)
				return err
			}},
		{"block-write-pass", FailTransient, failpoint.ErrInjected,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				atMergePass(func() {
					failpoint.Set(spill.FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModeError, Count: -1})
				})
				_, err := s.RunOneSpooled(context.Background(), in)
				return err
			}},
		{"block-read-pass", FailTransient, failpoint.ErrInjected,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				// The pass's merges are primed and rounds in, ref slab out,
				// when their reads start failing.
				atMergePass(func() {
					failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: spoolMergeFanIn + 2, Count: -1})
				})
				_, err := s.RunOneSpooled(context.Background(), in)
				return err
			}},
		{"cancel-sealed-runs", FailUnknown, context.Canceled,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				// The first pass's first run is sealed in its scratch file
				// when the 30th block write stalls; nobody will open it.
				failpoint.Set(spill.FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModeDelay, Nth: 30, Count: -1, Delay: 20 * time.Millisecond})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				onFire(spill.FpWriteBlock, cancel)
				_, err := s.RunOneSpooled(ctx, in)
				return err
			}},
		{"cancel-pass", FailUnknown, context.Canceled,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				atMergePass(cancel)
				_, err := s.RunOneSpooled(ctx, in)
				return err
			}},
		{"mid-stream", FailTransient, failpoint.ErrInjected,
			func(t *testing.T, s *Scheduler[uint64], in *Spool[uint64], _ string) error {
				res, err := s.RunOneSpooled(context.Background(), in)
				if err != nil {
					t.Fatalf("RunOneSpooled: %v", err)
				}
				failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeError, Count: -1})
				for err == nil {
					var batch []comm.Entry[uint64]
					if batch, err = res.Next(); err == nil && len(batch) == 0 {
						t.Fatal("stream drained without surfacing the read failure")
					}
				}
				if cerr := res.Close(); cerr != nil {
					t.Fatalf("Close after a failed Next: %v", cerr)
				}
				if gets, _, puts := res.runs.pool.Stats(); gets != puts {
					t.Fatalf("job took %d slabs and returned %d", gets, puts)
				}
				// The final merge's ref slab was out when the read failed.
				if gets, _, puts := res.runs.refPool.Stats(); gets != puts || gets <= procs {
					t.Fatalf("job took %d ref slabs and returned %d", gets, puts)
				}
				if live := res.runs.tracker.Live(); live != 0 {
					t.Fatalf("job tracker.Live = %d after Close", live)
				}
				return err
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			failpoint.Reset()
			t.Cleanup(failpoint.Reset)
			spillDir := t.TempDir()
			e, err := NewEngine[uint64](Options{
				Procs: procs, WorkersPerProc: 2,
				MemoryBudget: 64 << 10, SpillDir: spillDir,
			}, codec)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			spool := writeSpool(t, e, t.TempDir(), keys)
			if len(spool.runs) <= spoolMergeFanIn*spoolMergeFanIn {
				t.Fatalf("the spool holds %d runs: fewer than two passes", len(spool.runs))
			}
			s := NewScheduler(e, SortManyOpts{MaxInflight: 1})

			err = tc.run(t, s, spool, spillDir)
			failpoint.Reset()
			if err == nil {
				t.Fatal("job succeeded")
			}
			if !errors.Is(err, tc.is) {
				t.Fatalf("error %v, want one wrapping %v", err, tc.is)
			}
			if c := Classify(err); c != tc.class {
				t.Fatalf("Classify(%v) = %v, want %v", err, c, tc.class)
			}
			requireEmptyDir(t, spillDir)
			if spool.Len() != n {
				t.Fatalf("spool input should remain caller-owned: %d keys", spool.Len())
			}

			// A leaked admission slot would block this forever.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := s.RunOneSpooled(ctx, spool)
			if err != nil {
				t.Fatalf("follow-up RunOneSpooled: %v", err)
			}
			got := drainSpooled[uint64](t, codec, res)
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("follow-up spooled sort diverges from resident sort")
			}
		})
	}
}

// TestMergePassErrorExits takes one rung of the spooled fan-in ladder out
// through the exits inside its merges — a block read failing, and the
// context cancelled, with a group's merge primed, rounds in and its ref
// slab out — on a former the test can see into, which formed the spool's
// runs: after each, every entry and ref slab is back in its pool and the
// tracker is at zero, and the same pass over the same runs, rerun clean
// on the same former, streams out what a sort of the keys gives.
func TestMergePassErrorExits(t *testing.T) {
	const n, chunk = 20000, 1000 // 20 runs: a pass of three groups
	codec := comm.U64Codec{}
	keys := dist.Gen{Kind: dist.FewDistinct, Seed: 31}.Keys(n)
	want := slices.Clone(keys)
	slices.Sort(want)
	e := newTestEngine(t, Options{Procs: 1, MemoryBudget: -1})

	exits := map[string]struct {
		is  error
		arm func(cancel func())
	}{
		"block-read": {failpoint.ErrInjected, func(func()) {
			failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: spoolMergeFanIn + 3, Count: -1})
		}},
		"cancel": {context.Canceled, func(cancel func()) {
			failpoint.Set(spill.FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeDelay, Nth: spoolMergeFanIn + 3, Count: -1, Delay: 5 * time.Millisecond})
			onFire(spill.FpReadBlock, cancel)
		}},
	}
	for name, exit := range exits {
		t.Run(name, func(t *testing.T) {
			failpoint.Reset()
			t.Cleanup(failpoint.Reset)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dir := t.TempDir()
			f := &runFormer[uint64]{
				ctx: ctx, codec: codec, cmps: e.comparators(), workers: 2,
				pool: &alloc.SlabPool[comm.Entry[uint64]]{}, refPool: &alloc.SlabPool[lsort.NormRef]{}, tracker: &alloc.Tracker{},
				blockBytes: 4 << 10, // several blocks a run: refills between rounds
			}
			pool := spill.NewScratchPool(dir)
			defer pool.Close()
			spool, err := newSpool(pool, f, chunk)
			if err != nil {
				t.Fatal(err)
			}
			defer spool.Close()
			if err := spool.Append(keys); err != nil {
				t.Fatal(err)
			}
			if err := spool.Finish(); err != nil {
				t.Fatal(err)
			}
			runs := spool.runs
			if len(runs) != n/chunk {
				t.Fatalf("formed %d runs", len(runs))
			}
			balanced := func(when string) (refGets int64) {
				t.Helper()
				if gets, _, puts := f.pool.Stats(); gets != puts {
					t.Fatalf("%s: former took %d entry slabs and returned %d", when, gets, puts)
				}
				refGets, _, refPuts := f.refPool.Stats()
				if refGets != refPuts {
					t.Fatalf("%s: former took %d ref slabs and returned %d", when, refGets, refPuts)
				}
				if live := f.tracker.Live(); live != 0 {
					t.Fatalf("%s: tracker.Live = %d", when, live)
				}
				return refGets
			}
			refGets0 := balanced("run formation")

			out, err := spill.NewScratch(dir)
			if err != nil {
				t.Fatal(err)
			}
			exit.arm(cancel)
			batch := f.take(256)
			_, err = f.mergePass(runs, out, batch)
			f.give(batch)
			if cerr := out.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if !errors.Is(err, exit.is) {
				t.Fatalf("pass ended in %v, want %v", err, exit.is)
			}
			failpoint.Reset()
			if balanced("failed pass") == refGets0 {
				t.Fatal("the failed pass took no ref slab: it never reached a merge")
			}

			f.ctx = context.Background()
			if out, err = spill.NewScratch(dir); err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			batch = f.take(256)
			next, err := f.mergePass(runs, out, batch)
			if err != nil || len(next) != 3 {
				t.Fatalf("clean pass gave %d runs: %v", len(next), err)
			}
			merged, done, err := openMerge(f, next, f.openEntries, f.cmps.headNorm, f.cmps.headLess, batch)
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			for {
				batch, err := merged.Next()
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) == 0 {
					break
				}
				for _, en := range batch {
					got = append(got, en.Key)
				}
			}
			done()
			f.give(batch)
			balanced("clean pass")
			if !slices.Equal(got, want) {
				t.Fatal("the pass rerun after the failure diverges from a sort of the keys")
			}
		})
	}
}
