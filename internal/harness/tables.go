package harness

import (
	"fmt"
	"runtime"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
)

// Table1 prints the experimental environment (paper Table I lists the
// authors' cluster; we report the host this reproduction runs on).
func Table1(c Config) ([]Table, error) {
	c = c.WithDefaults()
	t := Table{
		ID:     "table1",
		Title:  "Experimental environment",
		Header: []string{"item", "detail"},
		Rows: [][]string{
			{"os/arch", runtime.GOOS + "/" + runtime.GOARCH},
			{"go", runtime.Version()},
			{"cpus", fmt.Sprintf("%d", runtime.NumCPU())},
			{"gomaxprocs", fmt.Sprintf("%d", runtime.GOMAXPROCS(0))},
			{"transport", c.Transport},
			{"workers/proc", fmt.Sprintf("%d", c.Workers)},
			{"buffer", "256KB (paper's read-buffer size)"},
		},
		Notes: []string{
			"paper Table I: 32x Xeon E5-2660, 256GB DDR3, Mellanox 56Gb/s IB;",
			"this reproduction simulates the cluster in one process (docs/ARCHITECTURE.md)",
		},
	}
	return []Table{t}, nil
}

// Table2 reports the share of data on each processor after sorting with
// p=10 across the four distributions (paper Table II) — the load-balance
// headline result for duplicate-heavy inputs.
func Table2(c Config) ([]Table, error) {
	c = c.WithDefaults()
	const procs = 10
	t := Table{
		ID:     "table2",
		Title:  "Data share per processor after sorting, p=10",
		Header: []string{"distribution"},
	}
	for i := 0; i < procs; i++ {
		t.Header = append(t.Header, fmt.Sprintf("proc%d", i))
	}
	for _, kind := range dist.Kinds {
		// The paper's duplicate-heavy cases quantize into few distinct
		// values; narrow the domain for the skewed kinds the way Figure 4
		// describes them ("many duplicated data entries").
		parts := c.parts(kind, procs)
		rep, err := c.runPGXD(parts, core.Options{})
		if err != nil {
			return nil, err
		}
		row := []string{kind.String()}
		for _, sz := range rep.PartSizes() {
			row = append(row, pct(sz, rep.N))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("N=%d keys; paper shape: every processor holds ~10%% for all four distributions", c.N))

	// Companion table: the same inputs with the investigator disabled,
	// demonstrating what Table II would look like without the paper's
	// contribution.
	t2 := Table{
		ID:     "table2",
		Title:  "Same inputs with the investigator DISABLED (ablation)",
		Header: t.Header,
	}
	for _, kind := range []dist.Kind{dist.RightSkewed, dist.Exponential} {
		parts := c.parts(kind, procs)
		rep, err := c.runPGXD(parts, core.Options{DisableInvestigator: true})
		if err != nil {
			return nil, err
		}
		row := []string{kind.String()}
		for _, sz := range rep.PartSizes() {
			row = append(row, pct(sz, rep.N))
		}
		t2.Rows = append(t2.Rows, row)
	}
	t2.Notes = append(t2.Notes, "duplicated splitters all land on one processor without the investigator (Figure 3b)")
	return []Table{t, t2}, nil
}

// Table3 reports each processor's key range after sorting the
// Twitter-like degrees with 8, 12 and 16 processors (paper Table III).
func Table3(c Config) ([]Table, error) {
	c = c.WithDefaults()
	degrees := c.twitterDegrees()
	sweeps := []int{8, 12, 16}
	t := Table{
		ID:     "table3",
		Title:  "Key range per processor after sorting Twitter-like degrees",
		Header: []string{"proc"},
	}
	for _, p := range sweeps {
		t.Header = append(t.Header, fmt.Sprintf("p=%d", p))
	}
	ranges := make([][]string, 16)
	for i := range ranges {
		ranges[i] = make([]string, len(sweeps))
		for j := range ranges[i] {
			ranges[i][j] = "-"
		}
	}
	for j, p := range sweeps {
		res, err := c.sortPGXD(core.Blocks(degrees, p), core.Options{})
		if err != nil {
			return nil, err
		}
		for _, pr := range res.PartRanges() {
			if pr.Count == 0 {
				ranges[pr.Proc][j] = "(empty)"
				continue
			}
			ranges[pr.Proc][j] = fmt.Sprintf("%d - %d", pr.Min, pr.Max)
		}
	}
	for i := 0; i < 16; i++ {
		row := append([]string{fmt.Sprintf("proc%d", i)}, ranges[i]...)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: ranges are non-overlapping and increase with processor id",
		"(smaller keys gather on smaller ids, §IV-C)")
	return []Table{t}, nil
}
