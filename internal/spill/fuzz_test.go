package spill

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pgxsort/internal/comm"
)

// FuzzRunReader opens arbitrary bytes as a run file, whole and as a
// section, under a fixed-width, a variable-width and a payload-carrying
// codec. It must never panic; every failure, at open or mid-run, wraps
// ErrCorrupt; a run that drains cleanly yields exactly the entry count
// it announced; and nothing is sized from a field the file's own length
// does not bound, so total allocation stays a small multiple of the file.
func FuzzRunReader(f *testing.F) {
	// A valid two-block file and the ways to break it.
	valid := func() []byte {
		path := filepath.Join(f.TempDir(), "seed.spill")
		w, err := NewWriter(path, comm.U64Codec{}, 256)
		if err == nil {
			err = w.Append(u64Entries(24, 1))
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
	}()
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
			f.Add(seed, codec, uint16(0), uint16(1<<15))
		}
	}
	f.Add(valid, uint8(0), uint16(5), uint16(14))

	path := filepath.Join(f.TempDir(), "fuzz.spill")
	f.Fuzz(func(t *testing.T, data []byte, codec uint8, off, limit uint16) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		switch codec % 3 {
		case 0:
			fuzzRun[uint64](t, path, len(data), comm.U64Codec{}, uint64(off), uint64(limit))
		case 1:
			fuzzRun[string](t, path, len(data), comm.StringCodec{}, uint64(off), uint64(limit))
		default:
			fuzzRun[uint64](t, path, len(data), comm.NewRecordCodec[uint64](comm.U64Codec{}), uint64(off), uint64(limit))
		}
	})
}

func fuzzRun[K any](t *testing.T, path string, size int, c comm.Codec[K], off, limit uint64) {
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
	drain(NewRunReaderSection(path, c, ReaderOpts[K]{}, off, limit))
	runtime.ReadMemStats(&after)
	// Two passes, each at most the index (a 32 B blockMeta per 28 B entry)
	// plus one decoded slab per block (a 48 B string entry per 8 wire
	// bytes at worst) plus payload copies; the constant covers readers,
	// channels, error strings and a first pooled buffer.
	if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*size+64<<10); grew > bound {
		t.Fatalf("%d-byte file cost %d bytes of allocation, bound %d", size, grew, bound)
	}
}
