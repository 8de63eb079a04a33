package core

import (
	"strings"
	"testing"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/transport"
)

// chaosTCP is a test-sized transport config: fast reconnects, small
// windows so resets land mid-window, short drain.
func chaosTCP() transport.Config {
	return transport.Config{
		ConnectTimeout: 2 * time.Second,
		RetryBase:      2 * time.Millisecond,
		RetryMax:       20 * time.Millisecond,
		WindowFrames:   8,
		DrainTimeout:   2 * time.Second,
	}
}

// armResets arms a burst of count connection resets: the
// transport/write-frame site in error mode from the nth frame written
// onwards, over every link. count must stay below the link's
// DialAttempts, because every fire is one no-progress connection cycle.
// The registry is cleared when the test ends.
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

// armSendJitter delays a burst of count engine sends by d each through
// the core/send site. The seed picks where the burst starts, so each seed
// perturbs a different stretch of the message stream.
func armSendJitter(t *testing.T, seed uint64, count int, d time.Duration) {
	t.Helper()
	failpoint.Reset()
	t.Cleanup(failpoint.Reset)
	nth := 1 + int(dist.NewRNG(seed).Uint64n(uint64(4*count)))
	failpoint.Set(fpSend, failpoint.Schedule{Mode: failpoint.ModeDelay, Nth: nth, Count: count, Delay: d})
}

// TestSortSurvivesConnectionResets is the acceptance test for the
// hardened transport: a full distributed sort over TCP with connections
// killed on a schedule throughout the exchange must produce output
// identical to the in-process transport, entry for entry (keys AND
// origins), while actually reconnecting.
func TestSortSurvivesConnectionResets(t *testing.T) {
	const procs = 4
	for _, kind := range []dist.Kind{dist.Uniform, dist.RightSkewed} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			parts := mkParts(kind, procs, 6000, 1234)

			// BufferBytes matches the chaos engine below: it drives the
			// sample count, so both engines must agree on splitters for
			// the outputs to be comparable entry for entry.
			ref := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2, BufferBytes: 4096})
			want, err := ref.Sort(parts)
			if err != nil {
				t.Fatalf("reference sort: %v", err)
			}

			// Small buffers split the exchange into many frames per
			// link; the 18 frames of sampling, splitters and range
			// metadata go first, so the burst kills connections
			// mid-exchange.
			e := newTestEngine(t, Options{
				Procs:          procs,
				WorkersPerProc: 2,
				BufferBytes:    4096,
				Transport:      transport.KindTCP,
				TCP:            chaosTCP(),
			})
			const burst = 6
			armResets(t, 25, burst)
			got, err := e.Sort(parts)
			if err != nil {
				t.Fatalf("chaos sort: %v", err)
			}
			if err := got.Verify(parts); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < procs; i++ {
				if len(got.Parts[i]) != len(want.Parts[i]) {
					t.Fatalf("node %d: %d entries under chaos, %d on chan",
						i, len(got.Parts[i]), len(want.Parts[i]))
				}
				for j := range got.Parts[i] {
					g, w := got.Parts[i][j], want.Parts[i][j]
					if g.Key != w.Key || g.Proc != w.Proc || g.Index != w.Index {
						t.Fatalf("node %d entry %d: chaos %+v != chan %+v", i, j, g, w)
					}
				}
			}
			if got.Report.Reconnects == 0 {
				t.Error("chaos sort reported no reconnects; the faults did not bite")
			}
			if !strings.Contains(got.Report.String(), "reconnects") {
				t.Error("Report.String does not surface transport health under faults")
			}
			requireResetsFired(t, burst)
		})
	}
}

// TestSortManySurvivesResets runs the pipelined multi-dataset scheduler
// over TCP under a burst of connection resets: reconnect state is
// per-link and shared across multiplexed sorts, which this exercises.
func TestSortManySurvivesResets(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset chaos run")
	}
	const procs = 3
	e := newTestEngine(t, Options{
		Procs:          procs,
		WorkersPerProc: 2,
		Transport:      transport.KindTCP,
		TCP:            chaosTCP(),
	})
	const burst = 4
	armResets(t, 11, burst)
	datasets := [][][]uint64{
		mkParts(dist.Uniform, procs, 3000, 1),
		mkParts(dist.Exponential, procs, 3000, 2),
		mkParts(dist.Normal, procs, 3000, 3),
	}
	results, err := e.SortMany(datasets...)
	if err != nil {
		t.Fatalf("SortMany: %v", err)
	}
	for d, res := range results {
		if err := res.Verify(datasets[d]); err != nil {
			t.Fatalf("dataset %d: %v", d, err)
		}
	}
	requireResetsFired(t, burst)
}

// TestEngineRejectsUnrecoverablePlans: a partial mesh breaks the
// all-nodes-local contract the engine is built on.
func TestEngineRejectsUnrecoverablePlans(t *testing.T) {
	_, err := NewEngine[uint64](Options{TCP: transport.Config{LocalNodes: []int{0}}}, comm.U64Codec{})
	if err == nil {
		t.Error("engine accepted a partial-mesh transport config")
	}
}

// TestSendStallSurfacesInReport squeezes the exchange through one-frame
// windows: backpressure must show up as SendStall in the report.
func TestSendStallSurfacesInReport(t *testing.T) {
	cfg := chaosTCP()
	cfg.WindowFrames = 1
	e := newTestEngine(t, Options{
		Procs:          3,
		WorkersPerProc: 2,
		Transport:      transport.KindTCP,
		TCP:            cfg,
		// Small buffers force many frames per destination.
		BufferBytes: 4096,
	})
	parts := mkParts(dist.Uniform, 3, 20000, 99)
	res, err := e.Sort(parts)
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	if err := res.Verify(parts); err != nil {
		t.Fatal(err)
	}
	if res.Report.SendStall == 0 {
		t.Error("one-frame windows produced zero recorded send stall")
	}
}
