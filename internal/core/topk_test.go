package core

import (
	"bytes"
	"cmp"
	"testing"
	"testing/quick"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

// requireSelectKMatchesSort: TopK (or, with bottom, BottomK) over parts
// carries, key byte for key byte, what Sort over the same parts has at
// its top (bottom).
func requireSelectKMatchesSort[K cmp.Ordered](t *testing.T, codec comm.Codec[K], parts [][]K, bottom bool) {
	t.Helper()
	e, err := NewEngine[K](Options{Procs: len(parts), WorkersPerProc: 2}, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	name, selectK, sorted := "TopK", e.TopK, res.Top
	if bottom {
		name, selectK, sorted = "BottomK", e.BottomK, res.Bottom
	}
	for _, k := range []int{1, 3, 40, 700} {
		got, err := selectK(parts, k)
		if err != nil {
			t.Fatalf("%s(%d): %v", name, k, err)
		}
		want := sorted(k)
		if len(got.Entries) != len(want) {
			t.Fatalf("%s(%d) = %d entries, the sort has %d", name, k, len(got.Entries), len(want))
		}
		for i := range want {
			if !bytes.Equal(keyBytes(codec, got.Entries[i].Key), keyBytes(codec, want[i].Key)) {
				t.Fatalf("%s(%d)[%d] = %v, the sort says %v", name, k, i, got.Entries[i].Key, want[i].Key)
			}
		}
	}
}

// TestTopKMatchesFullSort and TestBottomKMatchesFullSort: selection runs
// under the order Sort produces, for every key type of the differentials'
// draw — float NaNs, which bare `<` cannot place, included.
func TestTopKMatchesFullSort(t *testing.T)    { selectKMatchesFullSort(t, false) }
func TestBottomKMatchesFullSort(t *testing.T) { selectKMatchesFullSort(t, true) }

func selectKMatchesFullSort(t *testing.T, bottom bool) {
	base := mkParts(dist.RightSkewed, 3, 1500, 23)
	for _, kind := range keyKinds {
		t.Run(kind.name(), func(t *testing.T) { kind.selectK(t, base, bottom) })
	}
}

func TestTopKOrigins(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 2, WorkersPerProc: 1})
	parts := [][]uint64{{5, 900, 3}, {42, 7}}
	top, err := e.TopK(parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if top.Entries[0].Key != 900 || top.Entries[0].Proc != 0 || top.Entries[0].Index != 1 {
		t.Fatalf("top[0] = %+v, want key 900 from (0,1)", top.Entries[0])
	}
	if top.Entries[1].Key != 42 || top.Entries[1].Proc != 1 || top.Entries[1].Index != 0 {
		t.Fatalf("top[1] = %+v, want key 42 from (1,0)", top.Entries[1])
	}
}

func TestTopKEdgeCases(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 3, WorkersPerProc: 1})
	parts := [][]uint64{{1, 2}, {}, {3}}
	// k = 0.
	top, err := e.TopK(parts, 0)
	if err != nil || len(top.Entries) != 0 {
		t.Fatalf("TopK(0) = %v, %v", top, err)
	}
	// k > total.
	top, err = e.TopK(parts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Entries) != 3 {
		t.Fatalf("TopK(100) = %d entries, want 3", len(top.Entries))
	}
	// Negative k rejected.
	if _, err := e.TopK(parts, -1); err == nil {
		t.Fatal("negative k accepted")
	}
	// Wrong part count rejected.
	if _, err := e.TopK([][]uint64{{1}}, 1); err == nil {
		t.Fatal("wrong part count accepted")
	}
}

func TestTopKMovesFewBytes(t *testing.T) {
	const perProc = 20000
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 2})
	parts := mkParts(dist.Uniform, 4, perProc, 3)
	top, err := e.TopK(parts, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Each non-master node ships at most k entries of 16 bytes.
	if top.BytesSent > 3*10*16 {
		t.Fatalf("top-k moved %d bytes, expected <= %d", top.BytesSent, 3*10*16)
	}
	if top.Duration <= 0 {
		t.Fatal("duration not measured")
	}
}

func TestTopKOverTCP(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 2, WorkersPerProc: 1, Transport: transport.KindTCP})
	parts := mkParts(dist.Uniform, 2, 2000, 5)
	top, err := e.TopK(parts, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(top.Entries); i++ {
		if top.Entries[i].Key > top.Entries[i-1].Key {
			t.Fatal("top-k not descending")
		}
	}
}

func TestQuantiles(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 4, WorkersPerProc: 1})
	data := make([]uint64, 1001)
	for i := range data {
		data[i] = uint64(i)
	}
	res, err := e.SortSlice(data)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := res.Quantiles(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 250, 500, 750, 1000}
	for i := range want {
		if qs[i] != want[i] {
			t.Fatalf("quantiles = %v, want %v", qs, want)
		}
	}
	// Median only.
	qs, err = res.Quantiles(1)
	if err != nil || len(qs) != 2 || qs[0] != 0 || qs[1] != 1000 {
		t.Fatalf("Quantiles(1) = %v, %v", qs, err)
	}
	// Errors.
	if _, err := res.Quantiles(0); err == nil {
		t.Fatal("Quantiles(0) accepted")
	}
	empty, err := e.Sort([][]uint64{{}, {}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Quantiles(2); err == nil {
		t.Fatal("quantiles of empty result accepted")
	}
}

// Property: distributed top-k equals the reference selection for random
// inputs and k.
func TestPropertyTopK(t *testing.T) {
	e := newTestEngine(t, Options{Procs: 3, WorkersPerProc: 1})
	f := func(a, b, c []uint64, kRaw uint8) bool {
		parts := [][]uint64{a, b, c}
		k := int(kRaw % 32)
		top, err := e.TopK(parts, k)
		if err != nil {
			return false
		}
		var all []uint64
		for _, part := range parts {
			all = append(all, part...)
		}
		want := k
		if want > len(all) {
			want = len(all)
		}
		if len(top.Entries) != want {
			return false
		}
		// Descending and matching the k largest of the multiset.
		res, err := e.Sort(parts)
		if err != nil {
			return false
		}
		ref := res.Top(k)
		for i := range ref {
			if top.Entries[i].Key != ref[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
