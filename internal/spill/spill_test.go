package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"pgxsort/internal/alloc"
	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
)

// writeRun spills entries through a Writer with the given block size and
// returns the file path.
func writeRun[K any](t *testing.T, entries []comm.Entry[K], c comm.Codec[K], blockBytes int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.spill")
	w, err := NewWriter(path, c, blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	// Append in uneven batches to exercise block splitting.
	for len(entries) > 0 {
		n := 1 + len(entries)/3
		if n > len(entries) {
			n = len(entries)
		}
		if err := w.Append(entries[:n]); err != nil {
			t.Fatal(err)
		}
		entries = entries[n:]
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// readAll drains a RunReader into one slice.
func readAll[K any](t *testing.T, r *RunReader[K]) []comm.Entry[K] {
	t.Helper()
	var out []comm.Entry[K]
	for {
		batch, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			return out
		}
		// Batches are recycled on the following Next: deep-copy.
		for _, e := range batch {
			e.Payload = append([]byte(nil), e.Payload...)
			out = append(out, e)
		}
	}
}

func u64Entries(n int, seed uint64) []comm.Entry[uint64] {
	g := dist.Gen{Kind: dist.FewDistinct, Seed: seed}
	keys := g.Keys(n)
	entries := make([]comm.Entry[uint64], n)
	for i, k := range keys {
		entries[i] = comm.Entry[uint64]{Key: k, Proc: uint32(i % 7), Index: uint32(i)}
	}
	return entries
}

func checkIdentical[K comparable](t *testing.T, got, want []comm.Entry[K]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Proc != want[i].Proc || got[i].Index != want[i].Index {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], want[i])
		}
		if string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("entry %d payload: got %q want %q", i, got[i].Payload, want[i].Payload)
		}
	}
}

// TestRoundTripU64: a multi-block uint64 run comes back byte-identical,
// with Count and the byte counters consistent.
func TestRoundTripU64(t *testing.T) {
	want := u64Entries(20000, 5)
	path := writeRun(t, want, comm.U64Codec{}, 4096)
	r, err := NewRunReader(path, comm.U64Codec{}, ReaderOpts[uint64]{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != uint64(len(want)) {
		t.Fatalf("Count = %d, want %d", r.Count(), len(want))
	}
	if len(r.index) < 4 {
		t.Fatalf("expected a multi-block file, got %d blocks", len(r.index))
	}
	checkIdentical(t, readAll(t, r), want)
	if r.BytesRead() <= 0 {
		t.Fatalf("BytesRead = %d", r.BytesRead())
	}
}

// editIndex returns a copy of a finished run file with block i's 28-byte
// index entry (and, through trailer, the 32-byte trailer) rewritten and
// the index checksum recomputed, so the edit reaches the reader's
// structural checks instead of tripping the CRC.
func editIndex(file []byte, i int, edit func(entry, trailer []byte)) []byte {
	out := append([]byte(nil), file...)
	tr := out[len(out)-trailerSize:]
	idx := out[binary.LittleEndian.Uint64(tr) : len(out)-trailerSize]
	edit(idx[i*indexEntrySize:(i+1)*indexEntrySize], tr)
	binary.LittleEndian.PutUint32(tr[20:], crc32.Checksum(idx, castagnoli))
	return out
}

// TestBlocksStoredRaw: whatever the keys look like, a run file is exactly
// header + the entries' wire encoding + index + trailer, and it
// round-trips; an index entry claiming the retired compressed flag or a
// raw length other than the stored one opens as ErrCorrupt, so a file
// from a compressing writer is rejected, never misread.
func TestBlocksStoredRaw(t *testing.T) {
	for _, kind := range []dist.Kind{dist.FewDistinct, dist.Uniform} {
		keys := dist.Gen{Kind: kind, Seed: 9}.Keys(50000)
		want := make([]comm.Entry[uint64], len(keys))
		for i, k := range keys {
			want[i] = comm.Entry[uint64]{Key: k, Proc: uint32(i % 7), Index: uint32(i)}
		}
		path := writeRun(t, want, comm.U64Codec{}, 0)
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunReader(path, comm.U64Codec{}, ReaderOpts[uint64]{})
		if err != nil {
			t.Fatal(err)
		}
		wire := comm.EncodeEntries(nil, want, comm.U64Codec{})
		blocks := len(r.index)
		if size := headerSize + len(wire) + blocks*indexEntrySize + trailerSize; blocks < 2 || len(file) != size {
			t.Fatalf("%v: file is %d bytes in %d blocks, want %d", kind, len(file), blocks, size)
		}
		if !bytes.Equal(file[headerSize:headerSize+len(wire)], wire) {
			t.Fatalf("%v: block bytes are not the entries' wire encoding", kind)
		}
		checkIdentical(t, readAll(t, r), want)
		r.Close()

		for name, edit := range map[string]func(entry, trailer []byte){
			"compressed-flag": func(e, _ []byte) { binary.LittleEndian.PutUint32(e[24:], 1) },
			"raw-len":         func(e, _ []byte) { binary.LittleEndian.PutUint32(e[12:], binary.LittleEndian.Uint32(e[12:])*3) },
		} {
			p := corrupt(t, path, func(b []byte) []byte { return editIndex(b, 1, edit) })
			if _, err := NewRunReader(p, comm.U64Codec{}, ReaderOpts[uint64]{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v %s: open returned %v, want ErrCorrupt", kind, name, err)
			}
		}
	}
}

// blockLens opens a finished run and returns each block's stored length
// and entry count.
func blockLens[K any](t *testing.T, path string, c comm.Codec[K]) (lens, counts []int) {
	t.Helper()
	r, err := NewRunReader(path, c, ReaderOpts[K]{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, m := range r.index {
		lens = append(lens, int(m.storedLen))
		counts = append(counts, int(m.count))
	}
	return lens, counts
}

// TestBlockBytesHonoured: blockBytes bounds what a block holds on the
// wire — origin fields and payload framing included — for fixed-width,
// variable-width and payload-carrying codecs alike. Only an entry that is
// larger than a block by itself exceeds it, alone in its block; and no
// block but the last stops while the next entry would still have fit.
func TestBlockBytesHonoured(t *testing.T) {
	const blockBytes = 1000 // not a multiple of any entry size below
	check := func(t *testing.T, lens, counts []int, sizes []int) {
		t.Helper()
		if len(lens) < 4 {
			t.Fatalf("expected a multi-block file, got %d blocks", len(lens))
		}
		next := 0 // index of the first entry after this block
		for i, n := range lens {
			next += counts[i]
			if n > blockBytes && counts[i] != 1 {
				t.Fatalf("block %d: %d bytes in %d entries, target %d", i, n, counts[i], blockBytes)
			}
			if i < len(lens)-1 && n+sizes[next] <= blockBytes {
				t.Fatalf("block %d stops at %d bytes though the next entry (%d) fits in %d", i, n, sizes[next], blockBytes)
			}
		}
	}
	g := dist.Gen{Kind: dist.RightSkewed, Seed: 31}
	t.Run("u64", func(t *testing.T) {
		want := u64Entries(2000, 31)
		sizes := make([]int, len(want))
		for i := range sizes {
			sizes[i] = 16
		}
		lens, counts := blockLens(t, writeRun(t, want, comm.U64Codec{}, blockBytes), comm.U64Codec{})
		check(t, lens, counts, sizes)
		// The default really is DefaultBlockBytes of wire, not twice that.
		lens, _ = blockLens(t, writeRun(t, u64Entries(20000, 31), comm.U64Codec{}, 0), comm.U64Codec{})
		if lens[0] != DefaultBlockBytes {
			t.Fatalf("default block holds %d bytes, want %d", lens[0], DefaultBlockBytes)
		}
	})
	t.Run("string", func(t *testing.T) {
		keys := g.Strings(2000, "key-")
		want := make([]comm.Entry[string], len(keys))
		sizes := make([]int, len(keys))
		for i, k := range keys {
			want[i] = comm.Entry[string]{Key: k, Index: uint32(i)}
			sizes[i] = comm.EntriesWireBytes(want[i:i+1], comm.StringCodec{})
		}
		lens, counts := blockLens(t, writeRun(t, want, comm.StringCodec{}, blockBytes), comm.StringCodec{})
		check(t, lens, counts, sizes)
	})
	t.Run("records", func(t *testing.T) {
		c := comm.NewRecordCodec[uint64](comm.U64Codec{})
		keys := g.Keys(600)
		want := make([]comm.Entry[uint64], len(keys))
		sizes := make([]int, len(keys))
		for i, k := range keys {
			// Payload sizes vary, and every 97th record outweighs a block.
			pay := make([]byte, 1+(i*37)%200)
			if i%97 == 50 {
				pay = make([]byte, blockBytes+i)
			}
			want[i] = comm.Entry[uint64]{Key: k, Index: uint32(i), Payload: pay}
			sizes[i] = comm.EntriesWireBytes(want[i:i+1], c)
		}
		path := writeRun(t, want, c, blockBytes)
		lens, counts := blockLens(t, path, c)
		check(t, lens, counts, sizes)
		r, err := NewRunReader(path, c, ReaderOpts[uint64]{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		checkIdentical(t, readAll(t, r), want)
	})
}

// TestRoundTripRecords: payload-carrying records survive the spill with
// payload bytes intact.
func TestRoundTripRecords(t *testing.T) {
	c := comm.NewRecordCodec[uint64](comm.U64Codec{})
	g := dist.Gen{Kind: dist.Uniform, Seed: 11}
	keys := g.Keys(3000)
	pays := g.Payloads(3000, 48)
	want := make([]comm.Entry[uint64], len(keys))
	for i, k := range keys {
		want[i] = comm.Entry[uint64]{Key: k, Proc: 2, Index: uint32(i), Payload: pays[i]}
	}
	path := writeRun(t, want, c, 8192)
	r, err := NewRunReader(path, c, ReaderOpts[uint64]{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkIdentical(t, readAll(t, r), want)
}

// TestRoundTripStrings: the variable-width codec round-trips.
func TestRoundTripStrings(t *testing.T) {
	g := dist.Gen{Kind: dist.RightSkewed, Seed: 13}
	keys := g.Strings(5000, "k")
	want := make([]comm.Entry[string], len(keys))
	for i, k := range keys {
		want[i] = comm.Entry[string]{Key: k, Proc: 1, Index: uint32(i)}
	}
	path := writeRun(t, want, comm.StringCodec{}, 2048)
	r, err := NewRunReader(path, comm.StringCodec{}, ReaderOpts[string]{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkIdentical(t, readAll(t, r), want)
}

// TestEmptyRun: a run with zero entries is a valid file.
func TestEmptyRun(t *testing.T) {
	path := writeRun(t, nil, comm.U64Codec{}, 0)
	r, err := NewRunReader(path, comm.U64Codec{}, ReaderOpts[uint64]{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != 0 {
		t.Fatalf("Count = %d", r.Count())
	}
	if got := readAll(t, r); len(got) != 0 {
		t.Fatalf("read %d entries from empty run", len(got))
	}
}

// TestSlabBalance: with a pool and tracker wired in, every decoded batch
// slab must come back — including when the reader is closed mid-stream
// with a batch outstanding.
func TestSlabBalance(t *testing.T) {
	want := u64Entries(30000, 17)
	path := writeRun(t, want, comm.U64Codec{}, 2048)
	pool := &alloc.SlabPool[comm.Entry[uint64]]{}
	tracker := &alloc.Tracker{}
	opts := ReaderOpts[uint64]{Pool: pool, Tracker: tracker, EntryBytes: 16}

	// Full drain.
	r, err := NewRunReader(path, comm.U64Codec{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	r.Close()
	if live := tracker.Live(); live != 0 {
		t.Fatalf("after drain: %d bytes live", live)
	}

	// Abandon mid-stream at various depths.
	for _, steps := range []int{0, 1, 2, 5} {
		r, err := NewRunReader(path, comm.U64Codec{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		r.Close()
		if live := tracker.Live(); live != 0 {
			t.Fatalf("after %d steps: %d bytes live", steps, live)
		}
	}
}

// corrupt writes a mutated copy of the file and returns its path.
func corrupt(t *testing.T, path string, mutate func([]byte) []byte) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "corrupt.spill")
	if err := os.WriteFile(out, mutate(append([]byte(nil), b...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorruptionBattery: truncations, flipped bytes and bad index
// offsets must every one surface ErrCorrupt — never a panic, never
// silently wrong bytes.
func TestCorruptionBattery(t *testing.T) {
	want := u64Entries(20000, 23)
	path := writeRun(t, want, comm.U64Codec{}, 2048)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size := len(full)

	mutations := map[string]func([]byte) []byte{
		"empty":             func(b []byte) []byte { return nil },
		"header-only":       func(b []byte) []byte { return b[:headerSize] },
		"trunc-mid-blocks":  func(b []byte) []byte { return b[:size/2] },
		"trunc-last-byte":   func(b []byte) []byte { return b[:size-1] },
		"bad-magic":         func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad-version":       func(b []byte) []byte { b[8] ^= 0xff; return b },
		"bad-trailer-magic": func(b []byte) []byte { b[size-1] ^= 0xff; return b },
		"bad-index-off":     func(b []byte) []byte { b[size-trailerSize] ^= 0x04; return b },
		"bad-index-bytes": func(b []byte) []byte {
			// Flip inside the first index entry's offset field.
			idxOff := size - trailerSize - 1
			b[idxOff] ^= 0x01
			return b
		},
		"bad-entry-count": func(b []byte) []byte {
			// totalEntries lives at trailer offset 12.
			b[size-trailerSize+12] ^= 0x01
			return b
		},
	}
	// Flip one byte in every block region of the file body.
	for off := headerSize; off < size-trailerSize; off += 1777 {
		off := off
		mutations[fmt.Sprintf("flip-%d", off)] = func(b []byte) []byte { b[off] ^= 0x10; return b }
	}

	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			p := corrupt(t, path, mutate)
			r, err := NewRunReader(p, comm.U64Codec{}, ReaderOpts[uint64]{})
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("open error %v does not wrap ErrCorrupt", err)
				}
				return
			}
			defer r.Close()
			got, readErr := drainOrErr(r)
			if readErr == nil {
				// The flipped byte may sit in slack the format never
				// reads (e.g. bufio padding is impossible, but CRC slack
				// is not) — then the data must still be right.
				checkIdentical(t, got, want)
				return
			}
			if !errors.Is(readErr, ErrCorrupt) {
				t.Fatalf("read error %v does not wrap ErrCorrupt", readErr)
			}
		})
	}
}

// drainOrErr reads until EOF or error, returning both.
func drainOrErr(r *RunReader[uint64]) ([]comm.Entry[uint64], error) {
	var out []comm.Entry[uint64]
	for {
		batch, err := r.Next()
		if err != nil {
			return out, err
		}
		if len(batch) == 0 {
			return out, nil
		}
		out = append(out, batch...)
	}
}

// TestWriterFailpoint: an injected write failure surfaces as an error
// (not a panic), poisons the writer, and removes the partial file.
func TestWriterFailpoint(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	failpoint.Set(FpWriteBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 1})

	path := filepath.Join(t.TempDir(), "run.spill")
	w, err := NewWriter(path, comm.U64Codec{}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	appendErr := w.Append(u64Entries(5000, 3))
	if appendErr == nil {
		appendErr = w.Finish()
	}
	if !errors.Is(appendErr, failpoint.ErrInjected) {
		t.Fatalf("err = %v, want injected", appendErr)
	}
	if err := w.Append(u64Entries(10, 3)); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("poisoned writer returned %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial file not removed: %v", err)
	}
}

// TestReaderFailpoint: an injected read failure surfaces through Next
// and the reader still closes cleanly with balanced slabs.
func TestReaderFailpoint(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	want := u64Entries(20000, 29)
	path := writeRun(t, want, comm.U64Codec{}, 2048)

	failpoint.Set(FpReadBlock, failpoint.Schedule{Mode: failpoint.ModeError, Nth: 3})
	tracker := &alloc.Tracker{}
	r, err := NewRunReader(path, comm.U64Codec{}, ReaderOpts[uint64]{Tracker: tracker, EntryBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, readErr := drainOrErr(r)
	if !errors.Is(readErr, failpoint.ErrInjected) {
		t.Fatalf("err = %v, want injected", readErr)
	}
	r.Close()
	if live := tracker.Live(); live != 0 {
		t.Fatalf("%d bytes live after failed read", live)
	}
}

// TestAbortRemovesFile: Abort is the cleanup path for discarded runs.
func TestAbortRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.spill")
	w, err := NewWriter(path, comm.U64Codec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(u64Entries(100, 1)); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file survives Abort: %v", err)
	}
}
