package datamgr

import (
	"sync"
	"testing"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
)

func TestChunkLen(t *testing.T) {
	m := &Manager{BufferBytes: 256 * 1024}
	// 16-byte entries: 256KB buffer holds 16384.
	if got := m.ChunkLen(16); got != 16384 {
		t.Fatalf("ChunkLen(16) = %d, want 16384", got)
	}
	// Huge entries still move one at a time.
	if got := m.ChunkLen(1 << 30); got != 1 {
		t.Fatalf("ChunkLen(huge) = %d, want 1", got)
	}
	// Defaults apply for nil and zero-valued managers.
	var nilM *Manager
	if got := nilM.ChunkLen(16); got != DefaultBufferBytes/16 {
		t.Fatalf("nil manager ChunkLen = %d", got)
	}
	if got := (&Manager{}).ChunkLen(0); got != DefaultBufferBytes {
		t.Fatalf("zero entry size ChunkLen = %d", got)
	}
}

func TestChunksSplitsOnBufferSize(t *testing.T) {
	m := &Manager{BufferBytes: 64} // 4 entries of 16 bytes per chunk
	entries := make([]comm.Entry[uint64], 10)
	for i := range entries {
		entries[i].Key = uint64(i)
	}
	var sizes []int
	var seen []uint64
	var lasts []bool
	err := Chunks(m, entries, 8, func(chunk []comm.Entry[uint64], last bool) error {
		sizes = append(sizes, len(chunk))
		lasts = append(lasts, last)
		for _, e := range chunk {
			seen = append(seen, e.Key)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 4, 2}
	if len(sizes) != len(want) {
		t.Fatalf("chunk sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunk sizes = %v, want %v", sizes, want)
		}
	}
	for i, k := range seen {
		if k != uint64(i) {
			t.Fatalf("chunk order broken at %d", i)
		}
	}
	// Only the final chunk carries the run-complete marker.
	for i, last := range lasts {
		if want := i == len(lasts)-1; last != want {
			t.Fatalf("lasts = %v, final chunk alone must be last", lasts)
		}
	}
}

func TestChunksEmpty(t *testing.T) {
	m := &Manager{}
	called := false
	err := Chunks(m, nil, 8, func([]comm.Entry[uint64], bool) error {
		called = true
		return nil
	})
	if err != nil || called {
		t.Fatal("empty input should produce no chunks")
	}
}

func TestAssemblySingleSource(t *testing.T) {
	a := NewAssembly[uint64](nil, []int{3}, 16)
	chunk := []comm.Entry[uint64]{{Key: 1}, {Key: 2}, {Key: 3}}
	if err := a.Write(0, chunk); err != nil {
		t.Fatal(err)
	}
	if !a.RunComplete(0) {
		t.Fatal("run not complete after all entries written")
	}
	for i, e := range a.Entries() {
		if e.Key != uint64(i+1) {
			t.Fatalf("entries = %v", a.Entries())
		}
	}
}

func TestAssemblyOffsetsAndBounds(t *testing.T) {
	a := NewAssembly[uint64](nil, []int{2, 0, 3}, 16)
	bounds := a.Bounds()
	want := []int{0, 2, 2, 5}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
	// Source 2 writes before source 0; regions stay disjoint.
	if err := a.Write(2, []comm.Entry[uint64]{{Key: 30}, {Key: 31}, {Key: 32}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(0, []comm.Entry[uint64]{{Key: 10}, {Key: 11}}); err != nil {
		t.Fatal(err)
	}
	got := a.Entries()
	wantKeys := []uint64{10, 11, 30, 31, 32}
	for i := range wantKeys {
		if got[i].Key != wantKeys[i] {
			t.Fatalf("assembled keys = %v, want %v", got, wantKeys)
		}
	}
}

func TestAssemblyIncrementalWrites(t *testing.T) {
	a := NewAssembly[uint64](nil, []int{4}, 16)
	a.Write(0, []comm.Entry[uint64]{{Key: 1}, {Key: 2}})
	if a.RunComplete(0) {
		t.Fatal("run complete too early")
	}
	a.Write(0, []comm.Entry[uint64]{{Key: 3}, {Key: 4}})
	if !a.RunComplete(0) {
		t.Fatal("run not complete after its last chunk")
	}
	for i, e := range a.Entries() {
		if e.Key != uint64(i+1) {
			t.Fatalf("incremental assembly wrong at %d: %v", i, a.Entries())
		}
	}
}

func TestAssemblyConcurrentSources(t *testing.T) {
	const p = 8
	const per = 1000
	perSrc := make([]int, p)
	for i := range perSrc {
		perSrc[i] = per
	}
	a := NewAssembly[uint64](nil, perSrc, 16)
	var wg sync.WaitGroup
	for src := 0; src < p; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for lo := 0; lo < per; lo += 100 {
				chunk := make([]comm.Entry[uint64], 100)
				for i := range chunk {
					chunk[i] = comm.Entry[uint64]{Key: uint64(src*per + lo + i)}
				}
				if err := a.Write(src, chunk); err != nil {
					t.Errorf("write src %d: %v", src, err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	for src := 0; src < p; src++ {
		if !a.RunComplete(src) {
			t.Fatalf("source %d not complete after all writes", src)
		}
	}
	for i, e := range a.Entries() {
		if e.Key != uint64(i) {
			t.Fatalf("assembled order wrong at %d: got %d", i, e.Key)
		}
	}
}

func TestAssemblyOverflowRejected(t *testing.T) {
	a := NewAssembly[uint64](nil, []int{2}, 16)
	if err := a.Write(0, make([]comm.Entry[uint64], 3)); err == nil {
		t.Fatal("overflow write accepted")
	}
	if err := a.Write(5, nil); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestAssemblyRunComplete(t *testing.T) {
	// Sources: 0 expects 2 (completed across two writes), 1 expects 0
	// (complete at birth), 2 expects 1.
	a := NewAssembly[uint64](nil, []int{2, 0, 1}, 16)
	if !a.RunComplete(1) || a.RunComplete(0) || a.RunComplete(2) {
		t.Fatal("RunComplete state wrong at birth")
	}
	if err := a.Write(0, []comm.Entry[uint64]{{Key: 1}}); err != nil {
		t.Fatal(err)
	}
	if a.RunComplete(0) {
		t.Fatal("partial write completed source 0")
	}
	if err := a.Write(2, []comm.Entry[uint64]{{Key: 9}}); err != nil {
		t.Fatal(err)
	}
	if !a.RunComplete(2) || a.RunComplete(0) {
		t.Fatal("RunComplete state wrong after source 2's only chunk")
	}
	if err := a.Write(0, []comm.Entry[uint64]{{Key: 2}}); err != nil {
		t.Fatal(err)
	}
	if !a.RunComplete(0) {
		t.Fatal("source 0 not complete after its last chunk")
	}
	if a.RunComplete(-1) || a.RunComplete(3) {
		t.Fatal("out-of-range source reported complete")
	}
}

func TestAssemblyTracksMemory(t *testing.T) {
	var tr alloc.Tracker
	m := &Manager{Tracker: &tr}
	a := NewAssembly[uint64](m, []int{10, 10}, 16)
	if tr.Live() != 320 {
		t.Fatalf("live = %d, want 320", tr.Live())
	}
	a.Release()
	if tr.Live() != 0 {
		t.Fatalf("live after release = %d, want 0", tr.Live())
	}
	if tr.Peak() != 320 {
		t.Fatalf("peak = %d, want 320", tr.Peak())
	}
	a.Release() // idempotent
	if tr.Live() != 0 {
		t.Fatal("double release corrupted tracker")
	}
}
