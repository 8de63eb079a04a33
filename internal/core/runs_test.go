package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
)

// TestRunFormerSourcesAndChunks holds the three entry sources to one
// result: the same keys as bare keys, as records and as a section of an
// upload spool, formed in one resident chunk or in small chunks spilled
// to run files and merged back, must give the same entries in the same
// order — keys, provenance and payloads — on the stable radix path. After
// each, every slab is back in the pool and the tracker is at zero.
func TestRunFormerSourcesAndChunks(t *testing.T) {
	const n, node = 5000, 3
	keys := dist.Gen{Kind: dist.FewDistinct, Seed: 5}.Keys(n)
	pays := dist.Gen{Kind: dist.Uniform, Seed: 6}.Payloads(n, 16)
	recs := make([]comm.Record[uint64], n)
	for i := range recs {
		recs[i] = comm.Record[uint64]{Key: keys[i], Payload: pays[i]}
	}
	codec := comm.NewRecordCodec[uint64](comm.U64Codec{})
	e, err := NewEngine[uint64](Options{Procs: 1, MemoryBudget: -1}, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The spool holds the records in arrival order with no provenance;
	// the section source restamps it.
	spool := writeSpoolEntries(t, codec, t.TempDir(), recs)

	newFormer := func() *runFormer[uint64] {
		return &runFormer[uint64]{
			ctx: context.Background(), codec: codec, cmps: e.comparators(), workers: 2,
			pool: &alloc.SlabPool[comm.Entry[uint64]]{}, tracker: &alloc.Tracker{},
			spillDir: t.TempDir(), dirPattern: "former-*",
		}
	}
	// form runs one source through the former and returns the sorted
	// entries, copied out before the slabs go back.
	type formFn func(f *runFormer[uint64], chunk int) ([]comm.Entry[uint64], error)
	inMemory := func(src func() entrySource[uint64]) formFn {
		return func(f *runFormer[uint64], chunk int) ([]comm.Entry[uint64], error) {
			buf := f.take(n)
			defer f.give(buf)
			runs, err := f.form(src(), buf[:chunk], "chunk", chunk < n)
			if err == nil && chunk < n {
				err = f.mergeInto(buf, runs)
			}
			return append([]comm.Entry[uint64](nil), buf...), err
		}
	}
	sources := map[string]formFn{
		"keys":    inMemory(func() entrySource[uint64] { return &keySource[uint64]{keys: keys, node: node} }),
		"records": inMemory(func() entrySource[uint64] { return &recSource[uint64]{recs: recs, node: node} }),
		"section": func(f *runFormer[uint64], chunk int) ([]comm.Entry[uint64], error) {
			runs, err := f.formSection(SpooledInput{Path: spool, N: n}, node, 0, n, chunk)
			if err != nil {
				return nil, err
			}
			out := make([]comm.Entry[uint64], n)
			return out, f.mergeInto(out, runs)
		},
	}

	// The reference: the records in one resident chunk.
	want, err := sources["records"](newFormer(), n)
	if err != nil {
		t.Fatal(err)
	}
	for name, form := range sources {
		for _, chunk := range []int{n, 700} {
			t.Run(fmt.Sprintf("%s/chunk-%d", name, chunk), func(t *testing.T) {
				f := newFormer()
				got, err := form(f, chunk)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.removeScratch(); err != nil {
					t.Fatal(err)
				}
				if gets, _, puts := f.pool.Stats(); gets != puts {
					t.Fatalf("former took %d slabs and returned %d", gets, puts)
				}
				if live := f.tracker.Live(); live != 0 {
					t.Fatalf("tracker.Live = %d", live)
				}
				if spilled := f.spillBytes.Load() > 0; spilled != (chunk < n || name == "section") {
					t.Fatalf("spillBytes = %d at chunk %d", f.spillBytes.Load(), chunk)
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Key != w.Key || g.Proc != node || g.Index != w.Index {
						t.Fatalf("entry %d: %+v, want %+v", i, g, w)
					}
					if name != "keys" && !bytes.Equal(g.Payload, recs[g.Index].Payload) {
						t.Fatalf("entry %d: payload does not match origin record %d", i, g.Index)
					}
				}
			})
		}
	}
}
