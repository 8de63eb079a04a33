package spill

import (
	"testing"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
)

// writeScratchRun writes entries as one run of a new scratch file under
// a test directory, in blocks of blockBytes; the file closes with the
// test.
func writeScratchRun(t *testing.T, entries []comm.Entry[uint64], blockBytes int) Run {
	t.Helper()
	s, err := NewScratch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return writeRuns(t, s, comm.U64Codec{}, blockBytes, [][]comm.Entry[uint64]{entries})[0]
}

// TestRunReaderSection cuts one scratch run into sections at every
// count, from one to more sections than blocks, and opens each as a run
// of its own: every section is whole blocks, exactly the entries at its
// place in the run, within a block of an even share, and read with
// slab accounting balanced to zero. Sections past the last block are
// empty and read nothing.
func TestRunReaderSection(t *testing.T) {
	const n = 2000
	entries := make([]comm.Entry[uint64], n)
	for i := range entries {
		entries[i] = comm.Entry[uint64]{Key: uint64(i) * 3, Proc: 1, Index: uint32(i)}
	}
	// Small blocks so sections straddle many block boundaries.
	run := writeScratchRun(t, entries, 256)
	perBlock := int(run.blocks[0].count)
	pool := &alloc.SlabPool[comm.Entry[uint64]]{}
	var tracker alloc.Tracker
	for _, p := range []int{1, 2, 3, 7, len(run.blocks), len(run.blocks) + 5} {
		at := 0
		for i, sec := range run.Split(p) {
			share := (i+1)*n/p - i*n/p
			if d := int(sec.Entries()) - share; d > perBlock || d < -perBlock {
				t.Fatalf("p=%d section %d: %d entries, an even share is %d and a block %d", p, i, sec.Entries(), share, perBlock)
			}
			r := OpenRun(sec, comm.U64Codec{}, ReaderOpts[uint64]{Pool: pool, Tracker: &tracker, EntryBytes: 40})
			got := readAll(t, r)
			if r.Count() != sec.Entries() {
				t.Fatalf("p=%d section %d: Count %d, Entries %d", p, i, r.Count(), sec.Entries())
			}
			checkIdentical(t, got, entries[at:at+len(got)])
			at += len(got)
			if len(got) == 0 && r.BytesRead() != 0 {
				t.Fatalf("p=%d section %d: empty, read %d bytes", p, i, r.BytesRead())
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if live := tracker.Live(); live != 0 {
				t.Fatalf("p=%d section %d: %d tracked bytes live after Close", p, i, live)
			}
		}
		if at != n {
			t.Fatalf("p=%d: sections hold %d entries, the run %d", p, at, n)
		}
	}
}

// TestRunReaderSectionTiling reads a run as p sections and checks their
// concatenation reproduces the whole run, and their bytes read the run's
// bytes — the contract the spooled sort's per-node section readers rely
// on: every block read once, by one section.
func TestRunReaderSectionTiling(t *testing.T) {
	const n = 1777
	entries := make([]comm.Entry[uint64], n)
	for i := range entries {
		entries[i] = comm.Entry[uint64]{Key: uint64(i * 7)}
	}
	run := writeScratchRun(t, entries, 300)
	whole := OpenRun(run, comm.U64Codec{}, ReaderOpts[uint64]{})
	readAll(t, whole)
	whole.Close()
	for _, p := range []int{1, 2, 3, 8} {
		var all []comm.Entry[uint64]
		read := int64(0)
		for _, sec := range run.Split(p) {
			r := OpenRun(sec, comm.U64Codec{}, ReaderOpts[uint64]{})
			all = append(all, readAll(t, r)...)
			read += r.BytesRead()
			r.Close()
		}
		checkIdentical(t, all, entries)
		if read != whole.BytesRead() {
			t.Fatalf("p=%d: sections read %d bytes, the whole run %d", p, read, whole.BytesRead())
		}
	}
	if parts := (Run{}).Split(3); len(parts) != 3 || parts[0].Entries()+parts[1].Entries()+parts[2].Entries() != 0 {
		t.Fatalf("the empty run split into %v", parts)
	}
}
