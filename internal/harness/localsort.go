package harness

import (
	"fmt"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
)

// LocalSortPaths compares the two step-1 paths — the paper's comparison
// sort (chunked quicksort + balanced merge) and the radix fast path over
// normalized keys — across every distribution kind. The sortpath column
// records the path the engine actually resolved (from
// Report.LocalSortPath), so the CI trajectory CSV captures
// comparison-vs-radix per commit. The radix column runs the engine's
// default (LocalSortAuto), which must resolve to radix for the uint64
// workload.
func LocalSortPaths(c Config) ([]Table, error) {
	c = c.WithDefaults()
	// A -localsort override on the sweep (Config.LocalSort) must not leak
	// into the radix column.
	cAuto := c
	cAuto.LocalSort = core.LocalSortAuto
	p := c.Procs[len(c.Procs)/2]
	t := Table{
		ID:    "localsort",
		Title: fmt.Sprintf("Local-sort paths per distribution, p=%d (ms)", p),
		Header: []string{"kind", "sortpath", "comparison_ms", "radix_ms",
			"radix_vs_comparison", "localsort_ms_comparison", "localsort_ms_radix"},
	}
	for _, kind := range dist.AllKinds {
		parts := c.parts(kind, p)
		comparison, err := c.runPGXD(parts, core.Options{LocalSort: core.LocalSortComparison})
		if err != nil {
			return nil, err
		}
		radix, err := cAuto.runPGXD(parts, core.Options{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			kind.String(),
			radix.LocalSortPath,
			ms(comparison.Total),
			ms(radix.Total),
			fmt.Sprintf("%.2fx", float64(comparison.Total)/float64(radix.Total)),
			ms(comparison.Steps[core.StepLocalSort]),
			ms(radix.Steps[core.StepLocalSort]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("N=%d keys, %d workers/proc, transport=%s", c.N, c.Workers, c.Transport),
		"radix skips constant byte columns, so narrow-domain and duplicate-heavy kinds run few passes;",
		"sortpath is the engine-resolved path (Report.LocalSortPath) of the default (auto) run")
	return []Table{t}, nil
}
