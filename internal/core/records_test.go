package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

func TestStringSortBothTransports(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const p = 4
	parts := make([][]string, p)
	var all []string
	for i := range parts {
		for j := 0; j < 500; j++ {
			s := fmt.Sprintf("prefix-shared-%c%d", 'a'+rng.Intn(3), rng.Intn(50))
			parts[i] = append(parts[i], s)
			all = append(all, s)
		}
	}
	for _, tr := range []string{transport.KindChan, transport.KindTCP} {
		e, err := NewEngine[string](Options{Procs: p, Transport: tr}, comm.StringCodec{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Sort(parts)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Keys()
		want := append([]string(nil), all...)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("%s: len %d != %d", tr, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: idx %d: %q != %q", tr, i, got[i], want[i])
			}
		}
		e.Close()
	}
}

func TestRecordSortBothTransports(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const p = 4
	recs := make([][]comm.Record[uint64], p)
	for i := range recs {
		for j := 0; j < 300; j++ {
			k := uint64(rng.Intn(100))
			pay := []byte(fmt.Sprintf("payload-%d-%d-%d", i, j, k))
			recs[i] = append(recs[i], comm.Record[uint64]{Key: k, Payload: pay})
		}
	}
	for _, tr := range []string{transport.KindChan, transport.KindTCP} {
		e, err := NewEngine[uint64](Options{Procs: p, Transport: tr}, comm.NewRecordCodec[uint64](comm.U64Codec{}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.SortRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		// Every entry must carry exactly the payload its origin attached.
		for _, part := range res.Parts {
			for _, en := range part {
				want := string(recs[en.Proc][en.Index].Payload)
				if string(en.Payload) != want {
					t.Fatalf("%s: entry key=%d origin(%d,%d): payload %q != %q",
						tr, en.Key, en.Proc, en.Index, en.Payload, want)
				}
				if en.Key != recs[en.Proc][en.Index].Key {
					t.Fatalf("key/origin mismatch")
				}
			}
		}
		prev := uint64(0)
		for _, k := range res.Keys() {
			if k < prev {
				t.Fatalf("%s: unsorted", tr)
			}
			prev = k
		}
		e.Close()
	}
}

// TestRecordSortStableOnSkewedKeys: records of equal keys leave in input
// (proc, index) order, resident and budgeted, even where a heavy key is
// divided among several parts — the sort is stable, payloads included.
func TestRecordSortStableOnSkewedKeys(t *testing.T) {
	const p, per = 8, 1500 // the modal key's share spans three splitters
	keys := mkParts(dist.RightSkewed, p, per, 5)
	recs := make([][]comm.Record[uint64], p)
	for i, ks := range keys {
		for j, k := range ks {
			recs[i] = append(recs[i], comm.Record[uint64]{Key: k, Payload: []byte(fmt.Sprintf("%d/%d", i, j))})
		}
	}
	for _, budget := range []int64{-1, spillBudget[uint64](per)} {
		e, err := NewEngine[uint64](Options{Procs: p, MemoryBudget: budget, SpillDir: t.TempDir()},
			comm.NewRecordCodec[uint64](comm.U64Codec{}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.SortRecords(recs)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("budget %d", budget)
		requireMatchesReference(t, comm.U64Codec{}, res, keys, label)
		for _, part := range res.Parts {
			for _, en := range part {
				if string(en.Payload) != fmt.Sprintf("%d/%d", en.Proc, en.Index) {
					t.Fatalf("%s: entry origin (%d,%d) carries payload %q", label, en.Proc, en.Index, en.Payload)
				}
			}
		}
	}
}
