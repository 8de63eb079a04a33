package pgxsort

import (
	"bytes"
	"strings"
	"testing"
)

// sortStringsWithBudget runs fuzzer-built string keys through the full
// distributed pipeline with the given memory budget (negative = explicitly
// in-memory). The resident balanced merge and the spilled cursor merge
// both resolve ties by source order, so the budgeted and unbudgeted runs
// must agree entry for entry.
func sortStringsWithBudget(t *testing.T, keys []string, budget int64, dir string) *Result[string] {
	t.Helper()
	parts := make([][]string, 3)
	for i := range parts {
		lo, hi := i*len(keys)/3, (i+1)*len(keys)/3
		parts[i] = keys[lo:hi]
	}
	res, err := SortDistributed(parts, Options{
		WorkersPerProc: 1,
		MemoryBudget:   budget,
		SpillDir:       dir,
	})
	if err != nil {
		t.Fatalf("budget=%d: %v", budget, err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatalf("budget=%d: %v", budget, err)
	}
	return res
}

// requireSameStringResult asserts two results are byte-identical: same
// partition shape and, entry for entry, the same key, origin processor and
// origin index.
func requireSameStringResult(t *testing.T, want, got *Result[string]) {
	t.Helper()
	if len(want.Parts) != len(got.Parts) {
		t.Fatalf("partition count %d != %d", len(got.Parts), len(want.Parts))
	}
	for p := range want.Parts {
		w, g := want.Parts[p], got.Parts[p]
		if len(w) != len(g) {
			t.Fatalf("part %d: %d entries != %d", p, len(g), len(w))
		}
		for i := range w {
			if g[i].Key != w[i].Key || g[i].Proc != w[i].Proc || g[i].Index != w[i].Index {
				t.Fatalf("part %d entry %d: got (%q, proc %d, idx %d), want (%q, proc %d, idx %d)",
					p, i, g[i].Key, g[i].Proc, g[i].Index, w[i].Key, w[i].Proc, w[i].Index)
			}
		}
	}
}

// FuzzSpillDifferential is the out-of-core differential oracle: every
// fuzzer-built dataset is sorted twice through the public API — once fully
// in memory, once under a one-byte memory budget that forces the exchange
// out of core through the internal/spill block-file tier — and the two
// results must be byte-identical (key, origin processor, origin index).
// The seeds cover duplicates, empty keys, shared prefixes (radix-norm
// collisions), non-ASCII bytes and enough volume to span several spill
// blocks.
func FuzzSpillDifferential(f *testing.F) {
	f.Add([]byte("\x03abc\x00\x03abd\x03abc"))                    // duplicates + empty
	f.Add([]byte("\x08prefixAA\x09prefixAAB\x0aprefixAABC"))      // nested prefixes
	f.Add([]byte("\x02\xff\xfe\x02\x00\x01\x04z\xc3\xbcg"))       // non-ASCII, NULs
	f.Add([]byte(strings.Repeat("\x0cshared-pref-", 40)))         // norm collisions
	f.Add([]byte("\xff" + strings.Repeat("k", 255) + "\x01a"))    // long key
	f.Add(bytes.Repeat([]byte{0x00}, 32))                         // all empty keys
	f.Add([]byte(strings.Repeat("\x08aaaabbbb\x08ccccdddd", 96))) // multi-block volume
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := fuzzKeys(data)
		if len(keys) > 4096 {
			keys = keys[:4096]
		}
		ref := sortStringsWithBudget(t, keys, -1, "")
		got := sortStringsWithBudget(t, keys, 1, t.TempDir())
		requireSameStringResult(t, ref, got)
		if ref.Report.SpillBytes != 0 {
			t.Fatalf("unbudgeted run spilled %d bytes", ref.Report.SpillBytes)
		}
		if len(keys) > 0 && got.Report.SpillBytes == 0 {
			t.Fatalf("one-byte budget did not spill (%d keys)", len(keys))
		}
	})
}

// TestSpillDifferentialSeeds replays the fuzz seed corpus as a plain test,
// so `go test` exercises the public-API spill differential without -fuzz.
func TestSpillDifferentialSeeds(t *testing.T) {
	seeds := [][]byte{
		[]byte("\x03abc\x00\x03abd\x03abc"),
		[]byte(strings.Repeat("\x0cshared-pref-", 40)),
		[]byte(strings.Repeat("\x08aaaabbbb\x08ccccdddd", 96)),
	}
	for _, data := range seeds {
		keys := fuzzKeys(data)
		ref := sortStringsWithBudget(t, keys, -1, "")
		got := sortStringsWithBudget(t, keys, 1, t.TempDir())
		requireSameStringResult(t, ref, got)
		if got.Report.SpillBytes == 0 {
			t.Fatalf("one-byte budget did not spill (%d keys)", len(keys))
		}
		if got.Report.SpillReads == 0 {
			t.Fatalf("spilled run read nothing back")
		}
	}
}
