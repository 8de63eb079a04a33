package spill

import (
	"errors"
	"os"
	"testing"
	"time"

	"pgxsort/internal/failpoint"
)

// TestNewScratchHasNoName: on Linux a scratch file never has a name, so
// the directory shows no entry even while the create site stalls — the
// moment the path that names one cannot help showing it — and a process
// killed there leaves nothing behind. A file system that cannot open an
// unnamed file takes that path, and the test skips.
func TestNewScratchHasNoName(t *testing.T) {
	dir := t.TempDir()
	if f, err := openUnnamed(dir); errors.Is(err, errors.ErrUnsupported) {
		t.Skipf("%s cannot hold an unnamed file", dir)
	} else if err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}
	failpoint.Reset()
	defer failpoint.Reset()
	failpoint.Set(FpCreateScratch, failpoint.Schedule{Mode: failpoint.ModeDelay, Delay: 50 * time.Millisecond})
	seen := make(chan int, 1)
	go func() {
		for failpoint.Fired(FpCreateScratch) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		ents, _ := os.ReadDir(dir)
		seen <- len(ents)
	}()
	s, err := NewScratch(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := <-seen; n != 0 {
		t.Fatalf("the create site saw %d entries, want none", n)
	}
	requireScratchFiles(t, dir, 1)
	if _, err := s.f.WriteAt([]byte("block"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.f.Truncate(2); err != nil {
		t.Fatal(err)
	}
}
