package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

// keyColumnCase sorts parts twice on one engine, as a job of entries
// (Engine.Sort, held to the test-side reference) and as a key-column job
// (Scheduler.RunOne), and requires the key columns to be the sort's parts'
// keys, node for node and bit for bit, each column allocated at its exact
// size, with every node's tracker back at zero. It returns the key-column
// job's report.
func keyColumnCase[K cmp.Ordered](t *testing.T, label string, opts Options, codec comm.Codec[K], parts [][]K) Report {
	t.Helper()
	e, err := NewEngine[K](opts, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("%s: sort: %v", label, err)
	}
	requireMatchesReference(t, codec, want, parts, label)
	cols, rep, err := NewScheduler(e, SortManyOpts{}).RunOne(context.Background(), parts)
	if err != nil {
		t.Fatalf("%s: RunOne: %v", label, err)
	}
	checkStageSpans(t, label, rep.Sched)
	if len(cols) != len(want.Parts) {
		t.Fatalf("%s: %d key columns for %d parts", label, len(cols), len(want.Parts))
	}
	for i, col := range cols {
		w := want.Parts[i]
		if len(col) != len(w) || cap(col) != len(col) || rep.PerNode[i].PartSize != len(col) {
			t.Fatalf("%s: column %d has %d keys (capacity %d, reported %d), the sort's part %d entries",
				label, i, len(col), cap(col), rep.PerNode[i].PartSize, len(w))
		}
		for j, k := range col {
			if !bytes.Equal(keyBytes(codec, k), keyBytes(codec, w[j].Key)) {
				t.Fatalf("%s: column %d key %d is %v, the sort's is %v", label, i, j, k, w[j].Key)
			}
		}
	}
	if rep.N != want.Report.N || rep.SpillBytes != want.Report.SpillBytes || rep.BytesSent != want.Report.BytesSent {
		t.Fatalf("%s: key-column job sorted %d keys, spilled %d B and sent %d B; the sort %d, %d B and %d B",
			label, rep.N, rep.SpillBytes, rep.BytesSent, want.Report.N, want.Report.SpillBytes, want.Report.BytesSent)
	}
	for i, n := range e.nodes {
		if live := n.tracker.Live(); live != 0 {
			t.Fatalf("%s: node %d tracker holds %d bytes after the sorts", label, i, live)
		}
	}
	return rep
}

// TestKeyColumnMatchesSort: a key-column job (Scheduler.RunOne) ends in
// the keys Engine.Sort's parts hold, for uint64 keys (by ref), float64
// keys with NaNs of both signs, both zeros and both infinities (by ref,
// the total order's bits) and strings sharing prefixes longer than the
// norm sees (entries, the inexact norm's fixup), over both transports
// and through the resident sink, the spilled sink and one node alone.
func TestKeyColumnMatchesSort(t *testing.T) {
	const per = 3000 // two nodes' worth passes the helper-goroutine cutoff
	floatOf := func(i int, k uint64) float64 {
		specials := []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff8000000000123), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
		switch {
		case i%40 < len(specials):
			return specials[i%40]
		case i%2 == 0:
			return math.Float64frombits(k * 0x9e3779b97f4a7c15)
		}
		return float64(k%200) - 100
	}
	for _, tr := range []string{transport.KindChan, transport.KindTCP} {
		for _, sink := range []struct {
			name  string
			procs int
			spill bool
		}{{"resident", 4, false}, {"spilled", 4, true}, {"single-node", 1, false}} {
			t.Run(tr+"/"+sink.name, func(t *testing.T) {
				u64 := mkParts(dist.RightSkewed, sink.procs, per, 23)
				f64 := make([][]float64, sink.procs)
				str := make([][]string, sink.procs)
				for i, part := range u64 {
					f64[i] = make([]float64, len(part))
					str[i] = make([]string, len(part))
					for j, k := range part {
						f64[i][j] = floatOf(j, k)
						str[i][j] = strings.Repeat("prefix", 2) + fmt.Sprint(k%97)
					}
				}
				opts := func(eb int) Options {
					o := Options{Procs: sink.procs, WorkersPerProc: 2, Transport: tr, MemoryBudget: -1}
					if sink.spill {
						o.MemoryBudget, o.SpillDir = int64(per*eb/10), t.TempDir()
					}
					return o
				}
				reps := []Report{
					keyColumnCase(t, "uint64", opts(entryBytes[uint64]()), comm.Codec[uint64](comm.U64Codec{}), u64),
					keyColumnCase(t, "float64", opts(entryBytes[float64]()), comm.Codec[float64](comm.F64Codec{}), f64),
					keyColumnCase(t, "string", opts(entryBytes[string]()), comm.Codec[string](comm.StringCodec{}), str),
				}
				for i, rep := range reps {
					if spilled := rep.SpillBytes > 0; spilled != sink.spill {
						t.Fatalf("case %d spilled %d bytes; want spilling: %v", i, rep.SpillBytes, sink.spill)
					}
				}
			})
		}
	}
}

// TestKeyColumnMemory: a uint64 key-column job holds its share's refs and
// then its key column resident, 16 + 8 bytes a key where a sort of the
// same input holds 16 + 40, and its temporary peak is below the sort's:
// the part it fills is 8 bytes a key, not 40.
func TestKeyColumnMemory(t *testing.T) {
	const procs, per = 4, 1 << 14
	parts := mkParts(dist.Uniform, procs, per, 5)
	n := int64(procs * per)
	opts := Options{Procs: procs, WorkersPerProc: 2, MemoryBudget: -1}
	res, err := newTestEngine(t, opts).Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := NewScheduler(newTestEngine(t, opts), SortManyOpts{}).RunOne(context.Background(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if want := n * (refBytes + int64(entryBytes[uint64]())); res.Report.ResidentBytes != want {
		t.Fatalf("sort held %d bytes resident, want %d", res.Report.ResidentBytes, want)
	}
	if want := n * (refBytes + 8); rep.ResidentBytes != want {
		t.Fatalf("key-column job held %d bytes resident, want %d: its share's refs and one key a position", rep.ResidentBytes, want)
	}
	if rep.TempPeakBytes >= res.Report.TempPeakBytes {
		t.Fatalf("key-column job peaked at %d temporary bytes, the sort at %d", rep.TempPeakBytes, res.Report.TempPeakBytes)
	}
}
