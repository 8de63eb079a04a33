package datamgr

import (
	"os"
	"sort"
	"sync"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/spill"
)

// TestSpillAssemblyMatchesAssembly: the same chunk traffic lands in a
// resident Assembly and a SpillAssembly; every source's run must read
// back byte-identical, with every run complete once its count lands.
func TestSpillAssemblyMatchesAssembly(t *testing.T) {
	m := &Manager{}
	perSrc := []int{1000, 0, 2500, 7}
	resident := NewAssembly[uint64](m, perSrc, 16)
	pool := spill.NewScratchPool(t.TempDir())
	defer pool.Close()
	spilled, err := NewSpillAssembly(m, perSrc, comm.U64Codec{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()

	var wg sync.WaitGroup
	for src, n := range perSrc {
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(src, n int) {
			defer wg.Done()
			sent := 0
			for sent < n {
				step := 300
				if step > n-sent {
					step = n - sent
				}
				chunk := make([]comm.Entry[uint64], step)
				for i := range chunk {
					chunk[i] = comm.Entry[uint64]{Key: uint64(sent + i), Proc: uint32(src), Index: uint32(sent + i)}
				}
				if err := resident.Write(src, chunk); err != nil {
					t.Error(err)
					return
				}
				if err := spilled.Write(src, chunk); err != nil {
					t.Error(err)
					return
				}
				sent += step
			}
		}(src, n)
	}
	wg.Wait()
	for src := range perSrc {
		if !spilled.RunComplete(src) || !resident.RunComplete(src) {
			t.Fatalf("source %d not complete after all writes", src)
		}
	}
	if spilled.Total() != 3507 {
		t.Fatalf("Total = %d", spilled.Total())
	}
	if spilled.SpillBytes() <= 0 {
		t.Fatalf("SpillBytes = %d", spilled.SpillBytes())
	}

	for src, run := range spilled.Runs() {
		want := resident.Entries()[resident.Bounds()[src]:resident.Bounds()[src+1]]
		if run.Entries() != uint64(len(want)) {
			t.Fatalf("source %d: run of %d entries, want %d", src, run.Entries(), len(want))
		}
		r := spill.OpenRun(run, comm.U64Codec{}, spill.ReaderOpts[uint64]{})
		var got []comm.Entry[uint64]
		for {
			batch, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) == 0 {
				break
			}
			got = append(got, batch...)
		}
		r.Close()
		if len(got) != len(want) {
			t.Fatalf("source %d: %d entries, want %d", src, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Proc != want[i].Proc || got[i].Index != want[i].Index {
				t.Fatalf("source %d entry %d: %+v != %+v", src, i, got[i], want[i])
			}
		}
	}
}

// TestSpillAssemblyOverflowAndClose: region overflow errors like the
// resident assembly, and Close gives the scratch file back to its pool,
// once, however often it is called; the directory never shows the file.
func TestSpillAssemblyOverflowAndClose(t *testing.T) {
	dir := t.TempDir()
	pool := spill.NewScratchPool(dir)
	defer pool.Close()
	a, err := NewSpillAssembly(&Manager{}, []int{2}, comm.U64Codec{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	scratch := a.scratch
	if err := a.Write(0, make([]comm.Entry[uint64], 3)); err == nil {
		t.Fatal("overflow write succeeded")
	}
	if err := a.Write(1, nil); err == nil {
		t.Fatal("out-of-range source succeeded")
	}
	a.Close()
	a.Close() // idempotent
	first, err := pool.Take()
	if err != nil {
		t.Fatal(err)
	}
	second, err := pool.Take()
	if err != nil {
		t.Fatal(err)
	}
	if first != scratch || second == scratch {
		t.Fatal("Close did not give the scratch back exactly once")
	}
	pool.Give(first)
	pool.Give(second)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) != 0 {
		t.Fatalf("files survive Close: %v", names)
	}
}

// TestSpillAssemblyEmptySource: a source expecting zero entries has no
// writer, yet an empty chunk for it (a node writing its own empty
// range) must be a no-op, not a nil-writer panic, and its run is complete
// from construction.
func TestSpillAssemblyEmptySource(t *testing.T) {
	pool := spill.NewScratchPool(t.TempDir())
	defer pool.Close()
	a, err := NewSpillAssembly(&Manager{}, []int{0, 1}, comm.U64Codec{}, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Write(0, nil); err != nil {
		t.Fatalf("empty chunk for zero-count source: %v", err)
	}
	if !a.RunComplete(0) {
		t.Fatal("zero-count source not complete at construction")
	}
	if err := a.Write(1, []comm.Entry[uint64]{{Key: 7}}); err != nil {
		t.Fatal(err)
	}
	if !a.RunComplete(1) {
		t.Fatal("source 1 not complete after its only expected entry landed")
	}
}
