package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
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

// TestRunFormerSourcesAndChunks holds the three step-1 inputs to one
// result: the same keys as bare keys, as records and landed in an upload
// spool (keys only; the "section" source), under an exact and an inexact
// norm, formed in one chunk, in several chunks spilled to a scratch file
// and merged back, or in chunks of one entry, must give entry for entry —
// key, payload, origin node and index — the records stable-sorted by key
// here, ties in provenance order. The in-memory sources are sorted as refs
// into them (sortRefs) and their entries built from the refs; their chunk
// runs are refs, 16 bytes a key whatever the codec, so a spilled share
// wrote exactly the ref frames of its keys and no payload byte. A spool
// is fed in uneven batches that straddle its chunks, always writes its
// chunks as runs, and stamps each key (0, arrival position). After each,
// every slab is back in its pool, the spool's staging included, and the
// tracker is at zero.
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
		// A formFn runs the first m entries of one source through the
		// former and returns them sorted, copied out before the slabs go
		// back. Whatever spills goes to scratch.
		type formFn func(f *runFormer[uint64], m, chunk int, scratch *spill.Scratch) ([]comm.Entry[uint64], error)
		inMemory := func(newSrc func(m int) shareSource[uint64]) formFn {
			return func(f *runFormer[uint64], m, chunk int, scratch *spill.Scratch) ([]comm.Entry[uint64], error) {
				if chunk == m {
					scratch = nil
				}
				src := newSrc(m)
				refs, err := f.sortRefs(src, chunk, node, scratch)
				if err != nil {
					return nil, err
				}
				defer f.refPool.Put(refs) // the share, resident: no tracker bytes
				out := make([]comm.Entry[uint64], m)
				src.emit(out, refs)
				return out, nil
			}
		}
		sources := map[string]formFn{
			"keys":    inMemory(func(m int) shareSource[uint64] { return &keySource[uint64]{keys: keys[:m], node: node} }),
			"records": inMemory(func(m int) shareSource[uint64] { return &recSource[uint64]{recs: recs[:m], node: node} }),
			// The first m keys landed in a spool of chunk keys a run, in a
			// scratch file of a pool of its own; its runs merge back.
			"section": func(f *runFormer[uint64], m, chunk int, _ *spill.Scratch) ([]comm.Entry[uint64], error) {
				pool := spill.NewScratchPool(t.TempDir())
				defer pool.Close()
				sp, err := newSpool(pool, f, chunk)
				if err != nil {
					return nil, err
				}
				defer sp.Close()
				for lo := 0; lo < m; lo += 333 {
					if err := sp.Append(keys[lo:min(lo+333, m)]); err != nil {
						return nil, err
					}
				}
				if err := sp.Finish(); err != nil {
					return nil, err
				}
				out := make([]comm.Entry[uint64], m)
				return out, mergeRuns(f, sp.runs, f.openEntries, f.cmps.headNorm, f.cmps.headLess, out, m, func(merged []comm.Entry[uint64], at int) error {
					copy(out[at:], merged)
					return nil
				})
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
					refFrames := int64(comm.RefsWireBytes(make([]lsort.NormRef, m), comm.U64Codec{}))
					if spilled := f.spillBytes.Load(); chunk < m && name != "section" && spilled != refFrames {
						t.Fatalf("step 1 spilled %d bytes for %d keys, want their ref frames' %d", spilled, m, refFrames)
					}
					proc := uint32(node)
					if name == "section" {
						proc = 0 // a spool is one input, its keys stamped by arrival
					}
					for i, w := range want {
						g := got[i]
						if g.Key != w.Key || g.Proc != proc || g.Index != w.Index {
							t.Fatalf("entry %d: %+v, want %+v from node %d", i, g, w, proc)
						}
						if wantPay := w.Payload; name != "records" && g.Payload != nil || name == "records" && !bytes.Equal(g.Payload, wantPay) {
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
type hugeSource struct{ shareSource[uint64] }

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

// TestMergeRunsFillsExactly: runs holding one element fewer or one more
// than their merge announces are spill.ErrCorrupt in the two merges the
// sink tests do not reach — step 1's ref runs merged into the share, and
// a spooled pass's entry runs merged into a run of the pass's file — and
// every slab goes back. Neither can be handed such runs from outside: step
// 1 counts its own chunks and a pass sums its runs' counts, so each merge
// is made as its caller makes it with the announced count off by one. The
// merges of two runs and more run in rounds, a lone run passes its own
// blocks through.
func TestMergeRunsFillsExactly(t *testing.T) {
	const node = 3
	keys := dist.Gen{Kind: dist.Uniform, Seed: 9}.Keys(3000)
	e, err := NewEngine[uint64](Options{Procs: 1, MemoryBudget: -1}, comm.U64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	cmps := e.comparators()
	e.Close()
	for _, caller := range []string{"step-1", "spooled-pass"} {
		for _, runs := range []int{1, 3} {
			for _, extra := range []int{-1, 1} {
				t.Run(fmt.Sprintf("%s/%d-runs/%+d", caller, runs, extra), func(t *testing.T) {
					dir := t.TempDir()
					f := &runFormer[uint64]{
						ctx: context.Background(), codec: comm.U64Codec{}, cmps: cmps, workers: 2,
						pool: &alloc.SlabPool[comm.Entry[uint64]]{}, refPool: &alloc.SlabPool[lsort.NormRef]{}, tracker: &alloc.Tracker{},
						blockBytes: 4 << 10, // several blocks a run
					}
					scratch, err := spill.NewScratch(dir)
					if err != nil {
						t.Fatal(err)
					}
					defer scratch.Close()
					chunk := len(keys) / runs
					want := chunk*runs - extra // the runs hold extra more than announced
					switch caller {
					case "step-1":
						src := &keySource[uint64]{keys: keys, node: node}
						var sorted []spill.Run
						for lo := 0; lo < chunk*runs; lo += chunk {
							refs := f.takeRefs(2 * chunk)
							run, err := f.writeRefRun(scratch, f.sortStaged(src, lo, refs[:chunk], refs[chunk:]))
							f.giveRefs(refs)
							if err != nil {
								t.Fatal(err)
							}
							sorted = append(sorted, run)
						}
						share := f.refPool.Get(want)
						fromNode := func(int) uint32 { return node }
						err = mergeRuns(f, sorted, openRefs(f, refRunCodec{}, fromNode), refNorm, nil, share, want, func(out []lsort.NormRef, at int) error {
							copy(share[at:], out)
							return nil
						})
						f.refPool.Put(share)
					case "spooled-pass":
						pool := spill.NewScratchPool(dir)
						defer pool.Close()
						spool, serr := newSpool(pool, f, chunk)
						if serr != nil {
							t.Fatal(serr)
						}
						defer spool.Close()
						if err := spool.Append(keys[:chunk*runs]); err != nil {
							t.Fatal(err)
						}
						if err := spool.Finish(); err != nil {
							t.Fatal(err)
						}
						batch := f.take(256)
						_, err = f.mergeRun(spool.runs, want, scratch, batch)
						f.give(batch)
					}
					if !errors.Is(err, spill.ErrCorrupt) {
						t.Fatalf("runs of %d elements announced as %d merged with %v, want spill.ErrCorrupt", chunk*runs, want, err)
					}
					if gets, _, puts := f.pool.Stats(); gets != puts {
						t.Fatalf("the merge took %d entry slabs and returned %d", gets, puts)
					}
					if gets, _, puts := f.refPool.Stats(); gets != puts {
						t.Fatalf("the merge took %d ref slabs and returned %d", gets, puts)
					}
					if live := f.tracker.Live(); live != 0 {
						t.Fatalf("tracker.Live = %d", live)
					}
				})
			}
		}
	}
}
