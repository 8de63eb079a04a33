package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pgxsort/internal/comm"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
)

// poolTraffic totals every node's slab-pool gets and puts, entry and ref
// pools alike.
func poolTraffic(e *Engine[uint64]) (gets, puts int64) {
	for _, n := range e.nodes {
		g, _, p := n.entryPool.Stats()
		rg, _, rp := n.refPool.Stats()
		gets += g + rg
		puts += p + rp
	}
	return gets, puts
}

// TestSinkErrorExits drives both exchange sinks out through every error
// exit around them: a failure entering the exchange (no sink yet), inside
// it (an assembly write, with peer chunks and the concurrent sender in
// flight) and at the merge boundary (a completed exchange that will never
// merge). The schedules never stop firing, so every node fails and none
// keeps a result slab. After each failed sort the engine must hold
// nothing: every slab taken went back to its pool, every node's
// temporary-memory tracker is at zero (Figure 11 still balances), SpillDir
// is empty — and the next sort on the same engine is byte-correct.
func TestSinkErrorExits(t *testing.T) {
	const procs, per = 4, 3000
	parts := mkParts(dist.RightSkewed, procs, per, 99)
	budgets := map[string]int64{"resident": -1, "spilled": spillBudget[uint64](per)}
	for sink, budget := range budgets {
		for _, site := range []string{fpExchange, fpMerge, "datamgr/assembly-write"} {
			for _, mode := range []failpoint.Mode{failpoint.ModeError, failpoint.ModePanic} {
				name := fmt.Sprintf("%s/%s/%s", sink, strings.ReplaceAll(site, "/", "-"), mode)
				t.Run(name, func(t *testing.T) {
					failpoint.Reset()
					t.Cleanup(failpoint.Reset)
					dir := t.TempDir()
					e := newTestEngine(t, Options{Procs: procs, WorkersPerProc: 2,
						MemoryBudget: budget, SpillDir: dir})
					want, err := e.Sort(parts)
					if err != nil {
						t.Fatalf("clean sort: %v", err)
					}
					if spilled := want.Report.SpillBytes > 0; spilled != (budget > 0) {
						t.Fatalf("clean sort spilled %d bytes under budget %d", want.Report.SpillBytes, budget)
					}

					gets0, puts0 := poolTraffic(e)
					failpoint.Set(site, failpoint.Schedule{Mode: mode, Count: -1})
					if _, err := e.Sort(parts); err == nil {
						t.Fatal("injected sort succeeded")
					}
					if failpoint.Fired(site) == 0 {
						t.Fatalf("failpoint %s never fired", site)
					}
					failpoint.Reset()

					gets1, puts1 := poolTraffic(e)
					if gets, puts := gets1-gets0, puts1-puts0; gets != puts {
						t.Fatalf("failed sort took %d slabs and returned %d", gets, puts)
					}
					checkNoLeak(t, e)
					left, err := os.ReadDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					if len(left) != 0 {
						t.Fatalf("failed sort left %d entries under SpillDir, first %q", len(left), left[0].Name())
					}

					got, err := e.Sort(parts)
					if err != nil {
						t.Fatalf("follow-up sort: %v", err)
					}
					requireMatchesReference(t, comm.U64Codec{}, got, parts, true, "follow-up")
					sameOutput(t, want, got)
					checkNoLeak(t, e)
				})
			}
		}
	}
}
