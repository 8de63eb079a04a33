package spill

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

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

// scratchFiles lists the scratch files under dir.
func scratchFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "pgxsort-*.scratch"))
	if err != nil {
		t.Fatal(err)
	}
	return files
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
	if files := scratchFiles(t, dir); len(files) != 1 {
		t.Fatalf("%d runs made %d scratch files, want 1", len(runs), len(files))
	}

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
	if files := scratchFiles(t, dir); len(files) != 0 {
		t.Fatalf("scratch file survives Close: %v", files)
	}
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

// TestScratchCloseReportsLeak: a scratch file that cannot be removed is
// disk leaking, and Close is the only one who knows: it says so, once.
func TestScratchCloseReportsLeak(t *testing.T) {
	s, err := NewScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.f.Name()); err != nil { // somebody else got there first
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Close of a scratch that could not be removed returned %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close returned %v", err)
	}
}
