package spill

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
)

// writeRuns writes each of runs into s from a goroutine of its own, in
// uneven batches so their blocks interleave in the file, and returns the
// sealed runs in the same order.
func writeRuns[K any](t *testing.T, s *Scratch, c comm.Codec[K], blockBytes int, runs [][]comm.Entry[K]) []Run {
	t.Helper()
	sealed := make([]Run, len(runs))
	var wg sync.WaitGroup
	for i, entries := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewRunWriter(s, c, blockBytes)
			for len(entries) > 0 {
				n := min(1+len(entries)/5, len(entries))
				if err := w.Append(entries[:n]); err != nil {
					t.Error(err)
					return
				}
				entries = entries[n:]
			}
			if err := w.Finish(); err != nil {
				t.Error(err)
				return
			}
			sealed[i] = w.Run()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return sealed
}

// descriptorsUnder counts this process's descriptors open on files under
// dir, a file unlinked since included; -1 means the system does not show
// them (no /proc/self/fd).
func descriptorsUnder(dir string) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
			strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// requireScratchFiles fails the test unless dir shows no entry and — where
// the system shows descriptors — exactly want files are open under it.
func requireScratchFiles(t *testing.T, dir string, want int) {
	t.Helper()
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("%d entries under the scratch dir, first %q: a scratch file has a name", len(left), left[0].Name())
	}
	if got := descriptorsUnder(dir); got >= 0 && got != want {
		t.Fatalf("%d scratch files open, want %d", got, want)
	}
}

// checkScratchRuns interleaves the runs in one scratch file, reads each
// back through its own reader — all open on the one descriptor at once —
// and holds it to the entries it was written from; the runs' blocks must
// tile the file and nothing else may be in it.
func checkScratchRuns[K comparable](t *testing.T, c comm.Codec[K], blockBytes int, runs [][]comm.Entry[K]) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewScratch(dir)
	if err != nil {
		t.Fatal(err)
	}
	sealed := writeRuns(t, s, c, blockBytes, runs)
	requireScratchFiles(t, dir, 1) // all the runs, one file

	readers := make([]*RunReader[K], len(sealed))
	blockBytesTotal, multi := int64(0), false
	for i, run := range sealed {
		if run.Entries() != uint64(len(runs[i])) {
			t.Fatalf("run %d: sealed with %d entries, wrote %d", i, run.Entries(), len(runs[i]))
		}
		multi = multi || len(run.blocks) > 2
		for _, m := range run.blocks {
			blockBytesTotal += int64(m.storedLen)
		}
		readers[i] = OpenRun(run, c, ReaderOpts[K]{})
	}
	if !multi {
		t.Fatal("no run of more than two blocks: nothing interleaved")
	}
	for i, r := range readers {
		if r.Count() != uint64(len(runs[i])) {
			t.Fatalf("run %d: Count = %d, want %d", i, r.Count(), len(runs[i]))
		}
		checkIdentical(t, readAll(t, r), runs[i])
	}
	read := int64(0)
	for _, r := range readers {
		read += r.BytesRead()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != blockBytesTotal || read != blockBytesTotal {
		t.Fatalf("file is %d bytes, %d read back, blocks total %d: want all three equal", st.Size(), read, blockBytesTotal)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	requireScratchFiles(t, dir, 0)
}

// TestScratchInterleavedRuns: concurrent run writers share one scratch
// file block by block, and every run — an empty one among them — reads
// back exactly what was written, for fixed-width keys, 128-byte-payload
// records and variable-width strings.
func TestScratchInterleavedRuns(t *testing.T) {
	const nRuns = 6
	g := dist.Gen{Kind: dist.RightSkewed, Seed: 41}
	t.Run("u64", func(t *testing.T) {
		runs := make([][]comm.Entry[uint64], nRuns)
		for i := range runs {
			if i == 3 {
				continue // an empty run in the middle
			}
			runs[i] = u64Entries(900+250*i, uint64(i))
			for j := range runs[i] {
				runs[i][j].Proc = uint32(i) // no two runs hold the same bytes
			}
		}
		checkScratchRuns(t, comm.U64Codec{}, 1<<10, runs)
	})
	t.Run("records", func(t *testing.T) {
		c := comm.NewRecordCodec[uint64](comm.U64Codec{})
		runs := make([][]comm.Entry[uint64], nRuns)
		for i := range runs {
			if i == 0 {
				continue
			}
			keys := g.Keys(120 + 40*i)
			pays := dist.Gen{Kind: dist.Uniform, Seed: uint64(50 + i)}.Payloads(len(keys), 128)
			runs[i] = make([]comm.Entry[uint64], len(keys))
			for j, k := range keys {
				runs[i][j] = comm.Entry[uint64]{Key: k, Proc: uint32(i), Index: uint32(j), Payload: pays[j]}
			}
		}
		checkScratchRuns(t, c, 2<<10, runs)
	})
	t.Run("string", func(t *testing.T) {
		runs := make([][]comm.Entry[string], nRuns)
		for i := range runs {
			if i == nRuns-1 {
				continue
			}
			keys := dist.Gen{Kind: dist.RightSkewed, Seed: uint64(60 + i)}.Strings(700+100*i, "key-")
			runs[i] = make([]comm.Entry[string], len(keys))
			for j, k := range keys {
				runs[i][j] = comm.Entry[string]{Key: k, Proc: uint32(i), Index: uint32(j)}
			}
		}
		checkScratchRuns(t, comm.StringCodec{}, 1<<10, runs)
	})
}

// TestScratchEmptyRun: a run nothing was appended to seals without
// touching the file, and both it and the zero Run read back as an
// exhausted cursor.
func TestScratchEmptyRun(t *testing.T) {
	s, err := NewScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := NewRunWriter(s, comm.U64Codec{}, 0)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten() != 0 || s.next.Load() != 0 {
		t.Fatalf("empty run wrote %d bytes, reserved %d", w.BytesWritten(), s.next.Load())
	}
	for name, run := range map[string]Run{"sealed": w.Run(), "zero": {}} {
		if run.Entries() != 0 {
			t.Fatalf("%s: Entries = %d", name, run.Entries())
		}
		r := OpenRun(run, comm.U64Codec{}, ReaderOpts[uint64]{})
		if got := readAll(t, r); len(got) != 0 || r.Count() != 0 {
			t.Fatalf("%s: read %d entries (Count %d) from an empty run", name, len(got), r.Count())
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScratchCorruptBlock: a byte flipped on disk inside one run's block
// surfaces as ErrCorrupt from that run's reader when it reaches the
// block — entries before it intact — and leaves the file's other runs
// readable.
func TestScratchCorruptBlock(t *testing.T) {
	s, err := NewScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runs := [][]comm.Entry[uint64]{u64Entries(3000, 1), u64Entries(3000, 2)}
	sealed := writeRuns(t, s, comm.U64Codec{}, 2<<10, runs)

	bad := sealed[0].blocks[3]
	at := int64(bad.offset) + int64(bad.storedLen)/2
	var b [1]byte
	if _, err := s.f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := s.f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}

	r := OpenRun(sealed[0], comm.U64Codec{}, ReaderOpts[uint64]{})
	got, err := drainOrErr(r)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("drain over a flipped byte returned %v, want ErrCorrupt", err)
	}
	before := 0
	for _, m := range sealed[0].blocks[:3] {
		before += int(m.count)
	}
	checkIdentical(t, got, runs[0][:before])
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	other := OpenRun(sealed[1], comm.U64Codec{}, ReaderOpts[uint64]{})
	defer other.Close()
	checkIdentical(t, readAll(t, other), runs[1])
}

// TestScratchWriterFailpoint: spill/write-block firing in the middle of
// one run poisons that writer and nothing else — the runs sealed before
// it and the ones written after it read back whole — and closing the
// scratch leaves no file.
func TestScratchWriterFailpoint(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	dir := t.TempDir()
	s, err := NewScratch(dir)
	if err != nil {
		t.Fatal(err)
	}
	codec := comm.U64Codec{}
	runs := [][]comm.Entry[uint64]{u64Entries(2000, 7), u64Entries(2000, 8)}
	sealed := writeRuns(t, s, codec, 1<<10, runs[:1])

	failpoint.Set(FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModePanic, Nth: 4})
	w := NewRunWriter(s, codec, 1<<10)
	appendErr := w.Append(u64Entries(2000, 9))
	if !errors.Is(appendErr, failpoint.ErrInjected) {
		t.Fatalf("append over the armed site returned %v, want injected", appendErr)
	}
	if w.Entries() == 0 {
		t.Fatal("the site fired before any block landed: not mid-run")
	}
	if err := w.Finish(); err != appendErr {
		t.Fatalf("poisoned writer's Finish returned %v, want %v", err, appendErr)
	}
	if w.buf != nil {
		t.Fatal("poisoned writer still holds its block buffer")
	}
	failpoint.Reset()

	sealed = append(sealed, writeRuns(t, s, codec, 1<<10, runs[1:])...)
	for i, run := range sealed {
		r := OpenRun(run, codec, ReaderOpts[uint64]{})
		checkIdentical(t, readAll(t, r), runs[i])
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("%d entries left after Close, first %q", len(left), left[0].Name())
	}
}

// TestNewScratchReportsLeak: on the path that names a scratch file (no
// unnamed open), a file that cannot be unlinked when it is created would
// outlive the process on disk, so newNamedScratch closes it and fails.
// The file is removed from under it while the create site stalls,
// between the create and the unlink.
func TestNewScratchReportsLeak(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	dir := t.TempDir()
	failpoint.Set(FpCreateScratch, failpoint.Schedule{Mode: failpoint.ModeDelay, Delay: 50 * time.Millisecond})
	removed := make(chan int, 1)
	go func() {
		for failpoint.Fired(FpCreateScratch) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "pgxsort-*.scratch"))
		for _, f := range files {
			os.Remove(f) // somebody else got there first
		}
		removed <- len(files)
	}()
	s, err := newNamedScratch(dir)
	if n := <-removed; n != 1 {
		t.Fatalf("the create site saw %d scratch files, want 1", n)
	}
	if s != nil || !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "unlink scratch file") {
		t.Fatalf("NewScratch over a file it could not unlink returned %v, %v", s, err)
	}
	requireScratchFiles(t, dir, 0)
}

// TestScratchPoolReuse: a pool makes a file only when none is idle, hands
// an idle one back out to reserve from offset zero, and cuts a returned
// file to the extent its last stage reserved. A reused file's runs read
// back exactly, the longer tail an earlier run left behind them never
// read; the directory never shows a file; the create site fires on every
// take; a file a write failed on is closed, not kept; and Close closes
// what is idle and whatever comes back after it.
func TestScratchPoolReuse(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	failpoint.Set(FpCreateScratch, failpoint.Schedule{Mode: failpoint.ModeDelay, Count: -1})
	dir := t.TempDir()
	codec := comm.U64Codec{}
	pool := NewScratchPool(dir)
	requireScratchFiles(t, dir, 0) // nothing before the first take

	take := func() *Scratch {
		t.Helper()
		s, err := pool.Take()
		if err != nil {
			t.Fatal(err)
		}
		if s.next.Load() != 0 {
			t.Fatalf("a taken scratch reserves from %d, want 0", s.next.Load())
		}
		return s
	}
	size := func(s *Scratch) int64 {
		t.Helper()
		st, err := s.f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	long, short := u64Entries(5000, 1), u64Entries(700, 2)
	s := take()
	writeRuns(t, s, codec, 1<<10, [][]comm.Entry[uint64]{long})
	pool.Give(s)
	if size(s) == 0 {
		t.Fatal("the first stage's blocks are not in the file")
	}
	again := take()
	if again != s {
		t.Fatal("Take made a file with one idle")
	}
	runs := writeRuns(t, again, codec, 1<<10, [][]comm.Entry[uint64]{short, short})
	extent := again.next.Load()
	for _, run := range runs {
		r := OpenRun(run, codec, ReaderOpts[uint64]{})
		checkIdentical(t, readAll(t, r), short)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	pool.Give(again)
	if got := size(again); got != extent {
		t.Fatalf("an idle file holds %d bytes, its last stage reserved %d", got, extent)
	}
	requireScratchFiles(t, dir, 1)

	// Two stages at once: two files, both kept.
	a, b := take(), take()
	if a == b {
		t.Fatal("two stages got one file")
	}
	pool.Give(a)
	pool.Give(b)
	requireScratchFiles(t, dir, 2)
	if fired := failpoint.Fired(FpCreateScratch); fired != 4 {
		t.Fatalf("create site fired %d times over 4 takes", fired)
	}

	// A write fails on one: it is closed when it comes back.
	bad := take()
	bad.f.Close()
	w := NewRunWriter(bad, codec, 1<<10)
	if err := w.Append(long); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	pool.Give(bad)
	requireScratchFiles(t, dir, 1)
	if bad.f != nil {
		t.Fatal("a scratch a write failed on went back to the pool")
	}

	kept := take()
	pool.Close()
	requireScratchFiles(t, dir, 1)
	pool.Give(kept)
	requireScratchFiles(t, dir, 0)
	pool.Close() // idempotent
}
