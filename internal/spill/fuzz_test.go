package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
)

// FuzzRunReader opens arbitrary bytes as a run file under a
// fixed-width, a variable-width and a payload-carrying codec. It must never panic; every failure, at open or mid-run, wraps
// ErrCorrupt; a run that drains cleanly yields exactly the entry count
// it announced; and nothing is sized from a field the file's own length
// does not bound, so total allocation stays a small multiple of the file.
func FuzzRunReader(f *testing.F) {
	// A valid two-block file and the ways to break it.
	runFile := func(c comm.Codec[uint64], entries []comm.Entry[uint64]) []byte {
		path := filepath.Join(f.TempDir(), "seed.spill")
		w, err := NewWriter(path, c, 256)
		if err == nil {
			err = w.Append(entries)
		}
		if err == nil {
			err = w.Finish()
		}
		if err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := runFile(comm.U64Codec{}, u64Entries(24, 1))
	indexOff := len(valid) - trailerSize - 2*indexEntrySize
	seeds := [][]byte{valid}
	for _, cut := range []int{0, headerSize, headerSize + 256, indexOff, indexOff + indexEntrySize,
		len(valid) - trailerSize, len(valid) - 1} {
		seeds = append(seeds, valid[:cut])
	}
	flipped := append([]byte(nil), valid...)
	flipped[indexOff+20] ^= 1 // block 0's CRC, index checksum left stale
	seeds = append(seeds, flipped,
		editIndex(valid, 0, func(e, _ []byte) { binary.LittleEndian.PutUint32(e[20:], 7) }), // wrong block CRC
		editIndex(valid, 1, func(e, _ []byte) { binary.LittleEndian.PutUint32(e[24:], 1) }), // compressed flag
		editIndex(valid, 1, func(e, tr []byte) { // a block of no entries, consistently
			binary.LittleEndian.PutUint64(tr[12:], binary.LittleEndian.Uint64(tr[12:])-uint64(binary.LittleEndian.Uint32(e[16:])))
			binary.LittleEndian.PutUint32(e[16:], 0)
		}),
		editIndex(valid, 1, func(e, tr []byte) { // count overstated, consistently
			binary.LittleEndian.PutUint32(e[16:], binary.LittleEndian.Uint32(e[16:])+1000)
			binary.LittleEndian.PutUint64(tr[12:], binary.LittleEndian.Uint64(tr[12:])+1000)
		}))
	for _, seed := range seeds {
		for codec := uint8(0); codec < 3; codec++ {
			f.Add(seed, codec)
		}
	}
	// A valid file of the payload-carrying codec, which the seeds above
	// are not.
	recs := u64Entries(24, 2)
	for i := range recs {
		recs[i].Payload = []byte{byte(i), 7}
	}
	f.Add(runFile(comm.NewRecordCodec[uint64](comm.U64Codec{}), recs), uint8(2))

	path := filepath.Join(f.TempDir(), "fuzz.spill")
	f.Fuzz(func(t *testing.T, data []byte, codec uint8) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		switch codec % 3 {
		case 0:
			fuzzRun[uint64](t, path, len(data), comm.U64Codec{})
		case 1:
			fuzzRun[string](t, path, len(data), comm.StringCodec{})
		default:
			fuzzRun[uint64](t, path, len(data), comm.NewRecordCodec[uint64](comm.U64Codec{}))
		}
	})
}

func fuzzRun[K any](t *testing.T, path string, size int, c comm.Codec[K]) {
	drain := func(r *RunReader[K], err error) {
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		defer r.Close()
		got := uint64(0)
		for {
			batch, err := r.Next()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("read error %v does not wrap ErrCorrupt", err)
				}
				return
			}
			if len(batch) == 0 {
				break
			}
			got += uint64(len(batch))
		}
		if got != r.Count() {
			t.Fatalf("drained %d entries from a run announcing %d", got, r.Count())
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drain(NewRunReader(path, c, ReaderOpts[K]{}))
	runtime.ReadMemStats(&after)
	// One pass: at most the index (a 32 B blockMeta per 28 B entry)
	// plus one decoded slab per block (a 48 B string entry per 8 wire
	// bytes at worst) plus payload copies; the constant covers readers,
	// channels, error strings and a first pooled buffer.
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*size+64<<10); grew > bound {
		t.Fatalf("%d-byte file cost %d bytes of allocation, bound %d", size, grew, bound)
	}
}

// FuzzScratchRun reads scratch runs back block by block — as entries
// through OpenRun and as refs through OpenRefRun, the readers every merge
// of spilled runs reads through — after flipping bytes of their scratch
// file or cutting it short. Two runs of n entries share the file in
// blocks of 256 bytes, entries under the u64, string and record codecs
// and refs, 16 bytes each whatever the writer's codec, under the u64 and
// the record codec; run i's refs are from origin i+1. flips is (offset
// uint16, xor byte) triples; cut, when not zero, truncates the file to
// cut bytes modulo its length. It must never panic;
// every failure wraps ErrCorrupt; a run that drains cleanly yields
// Run.Entries() elements — the ones written, when nothing was edited —
// and a ref never names another origin; every decoded slab goes back.
func FuzzScratchRun(f *testing.F) {
	for kind := uint8(0); kind < 5; kind++ {
		f.Add(kind, uint16(300), []byte{}, uint32(0))
		f.Add(kind, uint16(300), []byte{20, 0, 1}, uint32(0))                // a flip in the first block
		f.Add(kind, uint16(300), []byte{0, 1, 0x80, 255, 255, 4}, uint32(0)) // two more
		f.Add(kind, uint16(300), []byte{}, uint32(700))                      // cut inside a block
		f.Add(kind, uint16(1), []byte{}, uint32(1))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, kind uint8, n uint16, flips []byte, cut uint32) {
		m := int(n % 512)
		recs := u64Entries(2*m, uint64(n))
		for i := range recs {
			recs[i].Proc, recs[i].Payload = uint32(1+i/max(m, 1)), []byte{byte(i), 7}
		}
		u64 := u64Entries(2*m, uint64(n)+1)
		norm := func(k uint64) uint64 { return k }
		switch kind % 5 {
		case 0:
			fuzzScratch(t, dir, comm.U64Codec{}, u64, m, nil, flips, cut)
		case 1:
			strs := make([]comm.Entry[string], 2*m)
			for i, e := range u64 {
				strs[i] = comm.Entry[string]{Key: fmt.Sprint(e.Key), Proc: e.Proc, Index: e.Index}
			}
			fuzzScratch(t, dir, comm.StringCodec{}, strs, m, nil, flips, cut)
		case 2:
			fuzzScratch(t, dir, comm.NewRecordCodec[uint64](comm.U64Codec{}), recs, m, nil, flips, cut)
		case 3:
			fuzzScratch(t, dir, comm.U64Codec{}, u64, m, norm, flips, cut)
		default:
			fuzzScratch(t, dir, comm.NewRecordCodec[uint64](comm.U64Codec{}), u64, m, norm, flips, cut)
		}
	})
}

// fuzzScratch writes entries as two runs of m into a scratch file of dir
// — as the refs standing for them under norm, run i's from origin i+1,
// when norm is set — edits the file and reads both runs back
// (FuzzScratchRun).
func fuzzScratch[K comparable](t *testing.T, dir string, c comm.Codec[K], entries []comm.Entry[K], m int, norm func(K) uint64,
	flips []byte, cut uint32) {
	refs := norm != nil
	s, err := NewScratch(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runs := make([]Run, 2)
	wrote := make([][]comm.NormRef, 2)
	for i := range runs {
		run := entries[i*m : (i+1)*m]
		w := NewRunWriter(s, c, 256)
		if refs {
			wrote[i] = make([]comm.NormRef, m)
			for j, e := range run {
				wrote[i][j] = comm.NormRef{Norm: norm(e.Key), Proc: uint32(i + 1), Idx: e.Index}
			}
			err = w.AppendRefs(wrote[i])
		} else {
			err = w.Append(run)
		}
		if err == nil {
			err = w.Finish()
		}
		if err != nil {
			t.Fatal(err)
		}
		if refs && w.BytesWritten() != int64(16*m) {
			t.Fatalf("run %d: %d refs written in %d bytes", i, m, w.BytesWritten())
		}
		runs[i] = w.Run()
	}

	size := s.next.Load()
	edited := false
	for ; len(flips) >= 3 && size > 0; flips = flips[3:] {
		at, b := int64(binary.LittleEndian.Uint16(flips))%size, []byte{0}
		if _, err := s.f.ReadAt(b, at); err != nil {
			t.Fatal(err)
		}
		b[0] ^= flips[2]
		if _, err := s.f.WriteAt(b, at); err != nil {
			t.Fatal(err)
		}
		edited = edited || flips[2] != 0
	}
	if cut != 0 && size > 0 {
		if err := s.f.Truncate(int64(cut) % size); err != nil {
			t.Fatal(err)
		}
		edited = true
	}

	tracker := &alloc.Tracker{}
	for i, run := range runs {
		var got []comm.NormRef
		var gotEntries []comm.Entry[K]
		var r interface {
			Close() error
			Count() uint64
		}
		var next func() (int, error)
		if refs {
			rr := OpenRefRun(run, uint32(i+1), ReaderOpts[K]{RefPool: &alloc.SlabPool[comm.NormRef]{}, Tracker: tracker})
			r, next = rr, func() (int, error) {
				batch, err := rr.Next()
				for _, ref := range batch {
					if ref.Proc != uint32(i+1) {
						t.Fatalf("run %d yielded a ref from origin %d", i, ref.Proc)
					}
				}
				got = append(got, batch...)
				return len(batch), err
			}
		} else {
			er := OpenRun(run, c, ReaderOpts[K]{Pool: &alloc.SlabPool[comm.Entry[K]]{}, Tracker: tracker, EntryBytes: 40})
			r, next = er, func() (int, error) {
				batch, err := er.Next()
				for _, e := range batch {
					gotEntries = append(gotEntries, comm.Entry[K]{Key: e.Key, Proc: e.Proc, Index: e.Index, Payload: slices.Clone(e.Payload)})
				}
				return len(batch), err
			}
		}
		drained := uint64(0)
		for {
			k, err := next()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("run %d: read error %v does not wrap ErrCorrupt", i, err)
				}
				drained = math.MaxUint64
				break
			}
			if k == 0 {
				break
			}
			drained += uint64(k)
		}
		r.Close()
		if live := tracker.Live(); live != 0 {
			t.Fatalf("run %d: %d decoded bytes outlive the reader", i, live)
		}
		if drained == math.MaxUint64 {
			continue
		}
		if drained != run.Entries() || r.Count() != run.Entries() {
			t.Fatalf("run %d drained %d elements, announcing %d", i, drained, run.Entries())
		}
		if edited {
			continue
		}
		want := entries[i*m : (i+1)*m]
		if refs && !slices.Equal(got, wrote[i]) {
			t.Fatalf("run %d: its refs read back otherwise", i)
		}
		if !refs && !slices.EqualFunc(gotEntries, want, func(a, b comm.Entry[K]) bool {
			return a.Key == b.Key && a.Proc == b.Proc && a.Index == b.Index && bytes.Equal(a.Payload, b.Payload)
		}) {
			t.Fatalf("run %d: its entries read back otherwise", i)
		}
	}
}
