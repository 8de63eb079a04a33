package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/lsort"
	"pgxsort/internal/spill"
)

// coarseNormCodec is U64Codec under an inexact norm: keys differing only
// in their low four bits share one.
type coarseNormCodec struct{ comm.U64Codec }

func (coarseNormCodec) Norm(k uint64) uint64 { return k >> 4 }
func (coarseNormCodec) NormInexact() bool    { return true }

// TestRunFormerSourcesAndChunks holds the three entry sources to one
// result: the same keys as bare keys, as records and as a section of an
// upload spool, under an exact and an inexact norm, formed in one chunk,
// in several chunks spilled to a scratch file and merged back, or in chunks of
// one entry, must give entry for entry — key, payload, origin node and
// index — the records stable-sorted by key here, ties in provenance
// order. After each, every slab is back in its pool and the tracker is at
// zero.
func TestRunFormerSourcesAndChunks(t *testing.T) {
	const n, node = 5000, 3
	keys := dist.Gen{Kind: dist.FewDistinct, Seed: 5}.Keys(n)
	for i := range keys {
		keys[i] = keys[i]<<4 | uint64(i*7%3) // several keys, each repeated, per coarse norm
	}
	pays := dist.Gen{Kind: dist.Uniform, Seed: 6}.Payloads(n, 16)
	recs := make([]comm.Record[uint64], n)
	for i := range recs {
		recs[i] = comm.Record[uint64]{Key: keys[i], Payload: pays[i]}
	}

	norms := []struct {
		name string
		key  comm.Codec[uint64]
	}{{"exact", comm.U64Codec{}}, {"inexact", coarseNormCodec{}}}
	// One chunk, several chunks, chunks of one entry (over a short prefix:
	// every chunk is a run the merge holds a reader on).
	shapes := []struct{ m, chunk int }{{n, n}, {n, 700}, {40, 1}}
	for _, norm := range norms {
		codec := comm.NewRecordCodec[uint64](norm.key)
		e, err := NewEngine[uint64](Options{Procs: 1, MemoryBudget: -1}, codec)
		if err != nil {
			t.Fatal(err)
		}
		cmps := e.comparators()
		e.Close()
		if cmps.inexact != (norm.name == "inexact") {
			t.Fatalf("%s: norm resolved inexact = %v", norm.name, cmps.inexact)
		}
		newFormer := func() *runFormer[uint64] {
			return &runFormer[uint64]{
				ctx: context.Background(), codec: codec, cmps: cmps, workers: 2,
				pool: &alloc.SlabPool[comm.Entry[uint64]]{}, refPool: &alloc.SlabPool[lsort.NormRef]{}, tracker: &alloc.Tracker{},
			}
		}
		// A spool holds the records in arrival order with no provenance;
		// the section source restamps it. A section is a whole spool of
		// the first m records.
		spools := map[int]*Spool[uint64]{}
		for _, shape := range shapes {
			spools[shape.m] = writeSpoolEntries(t, codec, t.TempDir(), recs[:shape.m])
		}

		// A formFn runs the first m entries of one source through the
		// former and returns them sorted, copied out before the slabs go
		// back. Whatever spills goes to scratch.
		type formFn func(f *runFormer[uint64], m, chunk int, scratch *spill.Scratch) ([]comm.Entry[uint64], error)
		inMemory := func(src func(m int) entrySource[uint64]) formFn {
			return func(f *runFormer[uint64], m, chunk int, scratch *spill.Scratch) ([]comm.Entry[uint64], error) {
				buf := f.take(m)
				defer f.give(buf)
				if chunk == m {
					scratch = nil
				}
				runs, err := f.form(src(m), buf[:chunk], chunk, scratch)
				if err == nil && chunk < m {
					err = f.mergeInto(buf, runs)
				}
				return slices.Clone(buf), err
			}
		}
		sources := map[string]formFn{
			"keys":    inMemory(func(m int) entrySource[uint64] { return &keySource[uint64]{keys: keys[:m], node: node} }),
			"records": inMemory(func(m int) entrySource[uint64] { return &recSource[uint64]{recs: recs[:m], node: node} }),
			"section": func(f *runFormer[uint64], m, chunk int, scratch *spill.Scratch) ([]comm.Entry[uint64], error) {
				runs, err := f.formSection(spools[m].run, node, chunk, scratch)
				if err != nil {
					return nil, err
				}
				out := make([]comm.Entry[uint64], m)
				return out, f.mergeInto(out, runs)
			},
		}

		for _, shape := range shapes {
			m, chunk := shape.m, shape.chunk
			want := make([]comm.Entry[uint64], m)
			for i, rec := range recs[:m] {
				want[i] = comm.Entry[uint64]{Key: rec.Key, Payload: rec.Payload, Proc: node, Index: uint32(i)}
			}
			slices.SortStableFunc(want, func(a, b comm.Entry[uint64]) int { return cmp.Compare(a.Key, b.Key) })
			for name, form := range sources {
				t.Run(fmt.Sprintf("%s/%s/%d-by-%d", norm.name, name, m, chunk), func(t *testing.T) {
					f, dir := newFormer(), t.TempDir()
					scratch, err := spill.NewScratch(dir)
					if err != nil {
						t.Fatal(err)
					}
					got, err := form(f, m, chunk, scratch)
					if err != nil {
						t.Fatal(err)
					}
					if err := scratch.Close(); err != nil {
						t.Fatal(err)
					}
					requireEmptyDir(t, dir)
					if gets, _, puts := f.pool.Stats(); gets != puts {
						t.Fatalf("former took %d entry slabs and returned %d", gets, puts)
					}
					if gets, _, puts := f.refPool.Stats(); gets == 0 || gets != puts {
						t.Fatalf("former took %d ref slabs and returned %d", gets, puts)
					}
					if live := f.tracker.Live(); live != 0 {
						t.Fatalf("tracker.Live = %d", live)
					}
					if spilled := f.spillBytes.Load() > 0; spilled != (chunk < m || name == "section") {
						t.Fatalf("spillBytes = %d at chunk %d", f.spillBytes.Load(), chunk)
					}
					for i, w := range want {
						g := got[i]
						if g.Key != w.Key || g.Proc != node || g.Index != w.Index {
							t.Fatalf("entry %d: %+v, want %+v", i, g, w)
						}
						if wantPay := w.Payload; name == "keys" && g.Payload != nil || name != "keys" && !bytes.Equal(g.Payload, wantPay) {
							t.Fatalf("entry %d: payload %x, want %x (nil for bare keys)", i, g.Payload, wantPay)
						}
					}
				})
			}
		}
	}
}

// hugeSource is a share of more entries than an origin index can
// address; nothing but its size is ever asked for.
type hugeSource struct{ entrySource[uint64] }

func (hugeSource) size() int {
	n := uint64(math.MaxUint32)
	return int(n + 1)
}

// TestShareSizeGuard: a share whose entries a uint32 index cannot tell
// apart must be refused before anything is sized from it, as a failure
// nobody retries.
func TestShareSizeGuard(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int cannot hold an oversized share on this platform")
	}
	err := checkShare[uint64](hugeSource{})
	if err == nil {
		t.Fatal("a share of 2^32 entries passed the guard")
	}
	if got := Classify(err); got != FailDataDependent {
		t.Fatalf("Classify = %v, want %v", got, FailDataDependent)
	}
	if err := checkShare[uint64](&keySource[uint64]{keys: make([]uint64, 3)}); err != nil {
		t.Fatalf("a three-key share was refused: %v", err)
	}
}
