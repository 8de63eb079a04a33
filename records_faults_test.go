package pgxsort

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/transport"
)

// armResets arms a burst of count connection resets: the
// transport/write-frame failpoint in error mode from the nth frame
// written onwards. count stays below the links' DialAttempts, because
// every fire is one no-progress connection cycle. The registry is cleared
// when the test ends.
func armResets(t *testing.T, nth, count int) {
	t.Helper()
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	failpoint.Set(transport.FpWriteFrame, failpoint.Schedule{Mode: failpoint.ModeError, Nth: nth, Count: count})
}

// requireResetsFired checks that the whole burst armResets armed fired.
func requireResetsFired(t *testing.T, count int) {
	t.Helper()
	if got := failpoint.Fired(transport.FpWriteFrame); got != int64(count) {
		t.Errorf("transport/write-frame fired %d times, want the armed burst of %d", got, count)
	}
}

// String sorts over the hardened TCP transport under scheduled connection
// resets: variable-width frames must survive retransmission bit-exactly.
func TestStringSortUnderTCPResets(t *testing.T) {
	const procs = 3
	parts := make([][]string, procs)
	for i := range parts {
		parts[i] = dist.Gen{Kind: dist.RightSkewed, Seed: uint64(20 + i), Domain: 500}.
			Strings(4000, "fault-prefix/")
	}
	c, err := NewCluster[string](Options{
		Procs: procs, WorkersPerProc: 2,
		Transport:   TransportTCP,
		BufferBytes: 8192,
		TCP:         TransportConfig{WindowFrames: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Sampling, splitters and range metadata take the first 10 frames.
	const burst = 5
	armResets(t, 15, burst)
	res, err := c.Sort(parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
	if res.Report.Reconnects == 0 {
		t.Error("expected reconnects under the reset schedule")
	}
	requireResetsFired(t, burst)
	var oracle []string
	for _, p := range parts {
		oracle = append(oracle, p...)
	}
	sort.Strings(oracle)
	got := res.Keys()
	for i := range oracle {
		if got[i] != oracle[i] {
			t.Fatalf("index %d: %q != oracle %q", i, got[i], oracle[i])
		}
	}
}

// Record sorts (key + payload) over TCP under resets: payloads must stay
// attached to their keys across reconnects and frame retransmissions.
func TestRecordSortUnderTCPResets(t *testing.T) {
	const procs = 3
	recs := make([][]Record[uint64], procs)
	for i := range recs {
		keys := dist.Gen{Kind: dist.Exponential, Seed: uint64(30 + i), Domain: 40}.Keys(4000)
		part := make([]Record[uint64], len(keys))
		for j, k := range keys {
			part[j] = Record[uint64]{
				Key:     k,
				Payload: []byte(fmt.Sprintf("payload-%d-%d", i, j)),
			}
		}
		recs[i] = part
	}
	c, err := NewRecordCluster[uint64](Options{
		Procs: procs, WorkersPerProc: 2,
		Transport:   TransportTCP,
		BufferBytes: 8192,
		TCP:         TransportConfig{WindowFrames: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Sampling, splitters and range metadata take the first 10 frames.
	const burst = 5
	armResets(t, 15, burst)
	res, err := c.SortRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Reconnects == 0 {
		t.Error("expected reconnects under the reset schedule")
	}
	requireResetsFired(t, burst)
	var prev uint64
	n := 0
	for _, part := range res.Parts {
		for _, e := range part {
			if e.Key < prev {
				t.Fatal("output not sorted")
			}
			prev = e.Key
			// Provenance: the payload must be the one its origin carried.
			want := recs[e.Proc][e.Index].Payload
			if !bytes.Equal(e.Payload, want) {
				t.Fatalf("entry origin (%d,%d): payload %q, want %q", e.Proc, e.Index, e.Payload, want)
			}
			n++
		}
	}
	if n != procs*4000 {
		t.Fatalf("got %d entries, want %d", n, procs*4000)
	}
}
