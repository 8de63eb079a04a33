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

// TestBufferPoolBalance drives concurrent writers and readers — over
// distinct run files, and over runs of one shared scratch file — through
// every way a run lets go of its pooled block buffer, each followed by a
// verified round trip. A buffer handed back twice ends up under two runs
// at once, which shows here as a wrong byte read back or, under -race, as
// a data race on the buffer.
func TestBufferPoolBalance(t *testing.T) {
	const (
		workers    = 8
		blockBytes = 1 << 10 // several blocks per run
	)
	codec := comm.U64Codec{}
	dir := t.TempDir()
	shared, err := NewScratch(dir)
	if err != nil {
		t.Fatal(err)
	}

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
	// a full drain (every Next returns its buffer before it returns),
	// Close.
	roundTrip := func(path string, want []comm.Entry[uint64]) error {
		if err := finished(path, want); err != nil {
			return err
		}
		r, err := NewRunReader(path, codec, ReaderOpts[uint64]{})
		if err != nil {
			return err
		}
		defer r.Close()
		return readsBack(r, want)
	}

	// The scratch side of the same: a run started with its first half
	// appended, a run sealed, and the round trip every scratch exit ends
	// with.
	newRun := func(s *Scratch, want []comm.Entry[uint64]) (*Writer[uint64], error) {
		w := NewRunWriter(s, codec, blockBytes)
		return w, w.Append(want[:len(want)/2])
	}
	sealed := func(s *Scratch, want []comm.Entry[uint64]) (Run, error) {
		w, err := newRun(s, want)
		if err == nil {
			err = w.Append(want[len(want)/2:])
		}
		if err == nil {
			err = w.Finish()
		}
		if err == nil && w.buf != nil {
			err = errors.New("finished run writer still holds its block buffer")
		}
		return w.Run(), err
	}
	scratchRoundTrip := func(want []comm.Entry[uint64]) error {
		run, err := sealed(shared, want)
		if err != nil {
			return err
		}
		r := OpenRun(run, codec, ReaderOpts[uint64]{})
		defer r.Close()
		return readsBack(r, want)
	}

	exits := []struct {
		name string
		run  func(path string, want []comm.Entry[uint64]) error
	}{
		{"scratch-abort-open-block", func(_ string, want []comm.Entry[uint64]) error {
			w, err := newRun(shared, want)
			if err != nil {
				return err
			}
			w.Abort()
			w.Abort()
			if w.buf != nil {
				return errors.New("aborted run writer still holds its block buffer")
			}
			if err := w.Append(want); !errors.Is(err, errAborted) {
				return fmt.Errorf("append after Abort returned %v", err)
			}
			return scratchRoundTrip(want)
		}},
		{"scratch-abort-after-finish", func(_ string, want []comm.Entry[uint64]) error {
			w, err := newRun(shared, want)
			if err != nil {
				return err
			}
			if err := w.Finish(); err != nil {
				return err
			}
			w.Abort()
			if err := w.Finish(); !errors.Is(err, errFinished) {
				return fmt.Errorf("Finish after Finish returned %v", err)
			}
			return scratchRoundTrip(want)
		}},
		{"scratch-write-fails", func(_ string, want []comm.Entry[uint64]) error {
			// A scratch of its own: the closed descriptor fails every
			// writer in the file.
			own, err := NewScratch(dir)
			if err != nil {
				return err
			}
			w, err := newRun(own, want)
			if err != nil {
				return err
			}
			// An unnamed file's name is dir itself.
			name := own.f.Name()
			own.f.Close() // the next block write fails
			first := w.Append(want)
			if first == nil {
				return errors.New("append to a closed scratch succeeded")
			}
			if err := w.Finish(); err != first {
				return fmt.Errorf("Finish after failure returned %v, want %v", err, first)
			}
			if w.buf != nil {
				return errors.New("failed run writer still holds its block buffer")
			}
			own.Close() // reports the double close; the file still goes
			if _, err := os.Stat(name); name != dir && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("scratch file survives Close: %v", err)
			}
			return scratchRoundTrip(want)
		}},
		{"scratch-close-mid-run", func(_ string, want []comm.Entry[uint64]) error {
			run, err := sealed(shared, want)
			if err != nil {
				return err
			}
			for steps := 0; steps < 3; steps++ {
				r := OpenRun(run, codec, ReaderOpts[uint64]{})
				for i := 0; i < steps; i++ {
					if _, err := r.Next(); err != nil {
						return err
					}
				}
				if err := r.Close(); err != nil {
					return err
				}
			}
			return scratchRoundTrip(want)
		}},
		{"scratch-read-error-mid-run", func(_ string, want []comm.Entry[uint64]) error {
			run, err := sealed(shared, want)
			if err != nil {
				return err
			}
			at := int64(run.blocks[2].offset) + 5 // inside the run's third block
			var b [1]byte
			if _, err := shared.f.ReadAt(b[:], at); err != nil {
				return err
			}
			b[0] ^= 0x40
			if _, err := shared.f.WriteAt(b[:], at); err != nil {
				return err
			}
			r := OpenRun(run, codec, ReaderOpts[uint64]{})
			if _, err := drainOrErr(r); !errors.Is(err, ErrCorrupt) {
				return fmt.Errorf("drain of a corrupt scratch block returned %v", err)
			}
			if err := r.Close(); err != nil {
				return err
			}
			return scratchRoundTrip(want)
		}},
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
		{"close-mid-run", func(path string, want []comm.Entry[uint64]) error {
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
			r, err := NewRunReader(path, codec, ReaderOpts[uint64]{})
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
	if err := shared.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.scratch")); len(left) != 0 {
		t.Fatalf("scratch files survive Close: %v", left)
	}
}

// readsBack drains r and holds what it yields to want.
func readsBack(r *RunReader[uint64], want []comm.Entry[uint64]) error {
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
