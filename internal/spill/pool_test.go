package spill

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pgxsort/internal/comm"
)

// TestBufferPoolBalance drives concurrent writers and readers over
// distinct files through every way a run file lets go of its pooled
// block buffer, each followed by a verified round trip. A buffer handed
// back twice ends up under two files at once, which shows here as a
// wrong byte read back or, under -race, as a data race on the buffer.
func TestBufferPoolBalance(t *testing.T) {
	const (
		workers    = 8
		blockBytes = 1 << 10 // several blocks per file
	)
	codec := comm.U64Codec{}
	dir := t.TempDir()

	// newWriter appends a first batch (flushing full blocks) so every
	// exit below starts with a block open.
	newWriter := func(path string, want []comm.Entry[uint64]) (*Writer[uint64], error) {
		w, err := NewWriter(path, codec, blockBytes)
		if err != nil {
			return nil, err
		}
		return w, w.Append(want[:len(want)/2])
	}
	// released checks a writer that is done holds no buffer and its file
	// is gone.
	released := func(w *Writer[uint64]) error {
		if w.buf != nil {
			return errors.New("writer still holds its block buffer")
		}
		if _, err := os.Stat(w.Path()); !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("run file survives: %v", err)
		}
		return nil
	}
	finished := func(path string, want []comm.Entry[uint64]) error {
		w, err := newWriter(path, want)
		if err == nil {
			err = w.Append(want[len(want)/2:])
		}
		if err == nil {
			err = w.Finish()
		}
		if err == nil && w.buf != nil {
			err = errors.New("finished writer still holds its block buffer")
		}
		return err
	}
	// roundTrip is the exit every other one is checked against: Finish,
	// a full drain (the prefetcher returns its buffer after the last
	// block), Close.
	roundTrip := func(path string, want []comm.Entry[uint64]) error {
		if err := finished(path, want); err != nil {
			return err
		}
		r, err := NewRunReader(path, codec, ReaderOpts[uint64]{})
		if err != nil {
			return err
		}
		defer r.Close()
		got, err := drainOrErr(r)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("read %d entries back, wrote %d", len(got), len(want))
		}
		for i := range want {
			if g, w := got[i], want[i]; g.Key != w.Key || g.Proc != w.Proc || g.Index != w.Index {
				return fmt.Errorf("entry %d: read %+v, wrote %+v", i, got[i], want[i])
			}
		}
		return nil
	}

	exits := []struct {
		name string
		run  func(path string, want []comm.Entry[uint64]) error
	}{
		{"abort-open-block", func(path string, want []comm.Entry[uint64]) error {
			w, err := newWriter(path, want)
			if err != nil {
				return err
			}
			w.Abort()
			w.Abort()
			return released(w)
		}},
		{"abort-after-finish", func(path string, want []comm.Entry[uint64]) error {
			if err := finished(path, want); err != nil {
				return err
			}
			w, err := newWriter(path, want)
			if err != nil {
				return err
			}
			if err := w.Finish(); err != nil {
				return err
			}
			w.Abort()
			if err := w.Append(want); !errors.Is(err, errFinished) {
				return fmt.Errorf("append after Finish returned %v", err)
			}
			return released(w)
		}},
		{"append-fails", func(path string, want []comm.Entry[uint64]) error {
			w, err := newWriter(path, want)
			if err != nil {
				return err
			}
			w.f.Close() // the next block write fails
			first := w.Append(want)
			if first == nil {
				return errors.New("append to a closed file succeeded")
			}
			if err := w.Finish(); err != first {
				return fmt.Errorf("Finish after failure returned %v, want %v", err, first)
			}
			w.Abort()
			return released(w)
		}},
		{"finish-fails", func(path string, want []comm.Entry[uint64]) error {
			w, err := newWriter(path, want)
			if err != nil {
				return err
			}
			w.f.Close()
			if err := w.Finish(); err == nil {
				return errors.New("Finish on a closed file succeeded")
			}
			w.Abort()
			return released(w)
		}},
		{"close-parked-prefetcher", func(path string, want []comm.Entry[uint64]) error {
			if err := finished(path, want); err != nil {
				return err
			}
			for steps := 0; steps < 3; steps++ {
				r, err := NewRunReader(path, codec, ReaderOpts[uint64]{})
				if err != nil {
					return err
				}
				for i := 0; i < steps; i++ {
					if _, err := r.Next(); err != nil {
						return err
					}
				}
				if err := r.Close(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"read-error-mid-run", func(path string, want []comm.Entry[uint64]) error {
			if err := finished(path, want); err != nil {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[headerSize+2*blockBytes+5] ^= 0x40 // inside the third block
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return err
			}
			r, err := NewRunReaderSection(path, codec, ReaderOpts[uint64]{}, 3, uint64(len(want)))
			if err != nil {
				return err
			}
			if _, err := drainOrErr(r); !errors.Is(err, ErrCorrupt) {
				return fmt.Errorf("drain of a corrupt block returned %v", err)
			}
			return r.Close()
		}},
		{"open-fails", func(path string, want []comm.Entry[uint64]) error {
			if err := finished(path, want); err != nil {
				return err
			}
			if err := os.Truncate(path, int64(headerSize+3*blockBytes)); err != nil {
				return err
			}
			if _, err := NewRunReader(path, codec, ReaderOpts[uint64]{}); !errors.Is(err, ErrCorrupt) {
				return fmt.Errorf("open of a truncated run returned %v", err)
			}
			return nil
		}},
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := u64Entries(700+61*g, uint64(g))
			for i := range want {
				want[i].Proc = uint32(g) // no two workers write the same bytes
			}
			for i := range exits {
				e := exits[(i+g)%len(exits)] // workers take the exits out of step
				path := filepath.Join(dir, fmt.Sprintf("w%d-%s.spill", g, e.name))
				if err := e.run(path, want); err != nil {
					t.Errorf("worker %d %s: %v", g, e.name, err)
					return
				}
				if err := roundTrip(path, want); err != nil {
					t.Errorf("worker %d round trip after %s: %v", g, e.name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
