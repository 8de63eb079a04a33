package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

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

// TestDroppedResultPinsNoPayloads: once a SortRecords's Result is
// dropped, the heap comes back to what it was before the sort plus what
// the engine keeps for the next one: its pooled entry and ref slabs and,
// over TCP, each read loop's frame buffer. None of those may keep a
// payload alive — not the slabs the exchange landed its entries in, not
// the transport's decode slabs, not the slabs a spill reader decoded a
// block into — and no frame may outlive its ack. With 4 KiB payloads the
// sort's received, or read back, payload blocks are most of its payload
// bytes, several times what the engine may keep. The spilled case runs
// over the chan transport, which keeps no frame, so its bound is the
// pools' alone.
func TestDroppedResultPinsNoPayloads(t *testing.T) {
	const p, n, payload, sorts = 4, 4096, 4 << 10, 3
	keys := dist.Gen{Kind: dist.RightSkewed, Seed: 11}.Keys(n)
	arena := make([]byte, n*payload)
	for i := range arena {
		arena[i] = byte(i * 7)
	}
	recs := make([]comm.Record[uint64], n)
	for i, k := range keys {
		recs[i] = comm.Record[uint64]{Key: k, Payload: arena[i*payload : (i+1)*payload : (i+1)*payload]}
	}
	parts := Blocks(recs, p)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the sync.Pools' victim caches
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, c := range []struct {
		name      string
		transport string
		budget    int64
	}{
		{"tcp", transport.KindTCP, -1},
		{"spilled", transport.KindChan, spillBudget[uint64](n / p)},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := NewEngine[uint64](Options{Procs: p, Transport: c.transport, MemoryBudget: c.budget, SpillDir: t.TempDir()},
				comm.NewRecordCodec[uint64](comm.U64Codec{}))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			before := heap()
			for i := 0; i < sorts; i++ {
				res, err := e.SortRecords(parts)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Parts[0][0].Payload; len(got) != payload {
					t.Fatalf("sort %d: a %d-byte payload", i, len(got))
				}
				if spilled := res.Report.SpillBytes > 0; spilled != (c.budget > 0) {
					t.Fatalf("sort %d spilled %d bytes under budget %d", i, res.Report.SpillBytes, c.budget)
				}
			}
			// A sent frame stays alive until its ack is pruned, and the
			// last acks of a sort may still be on their way when it
			// returns: take the least of a few readings.
			kept := heap() - before
			for i := 0; i < 5; i++ {
				time.Sleep(20 * time.Millisecond)
				kept = min(kept, heap()-before)
			}
			// A node's pools keep up to 4 entry and 8 ref slabs a size
			// class (40 and 16 bytes a record), a class about a share's
			// n/p records; over TCP a frame is about BufferBytes, and a
			// read loop keeps one a link.
			limit := int64(4*n*40 + 8*n*16)
			if c.transport == transport.KindTCP {
				limit += int64(p * (p - 1) * 2 * e.Options().BufferBytes)
			}
			if kept > limit {
				t.Errorf("after %d sorts whose Results were dropped the heap kept %d bytes more than before them, over %d: payloads of %d bytes are pinned",
					sorts, kept, limit, n*payload)
			} else {
				t.Logf("the heap kept %d bytes (at most %d) after %d sorts of %d payload bytes", kept, limit, sorts, n*payload)
			}
		})
	}
	runtime.KeepAlive(parts)
}
