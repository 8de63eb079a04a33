package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment regenerates one or more paper tables/figures.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Config) ([]Table, error)
}

// registry maps experiment ids to runners, one per paper table/figure plus
// the DESIGN.md ablations.
var registry = []Experiment{
	{"table1", "experimental environment (paper Table I)", Table1},
	{"fig4", "input data distributions (paper Figure 4)", Fig4},
	{"fig5", "PGX.D total sort times per distribution (paper Figure 5)", Fig5},
	{"fig6", "strong scaling vs Spark (paper Figure 6)", Fig6},
	{"fig7", "per-step time breakdown (paper Figure 7)", Fig7},
	{"table2", "load balance at p=10 (paper Table II)", Table2},
	{"fig8", "Twitter-like degree sort vs Spark (paper Figure 8)", Fig8},
	{"table3", "per-processor key ranges (paper Table III)", Table3},
	{"fig9", "sample-size sweep (paper Figure 9)", Fig9},
	{"fig10", "min/max load vs sample size (paper Figure 10)", Fig10},
	{"fig11", "memory consumption (paper Figure 11)", Fig11},
	{"pipeline", "SortMany schedules: sequential vs naive vs pipelined (ISSUE 2)", Fig56Pipeline},
	{"localsort", "local-sort paths: comparison vs radix fast path (ISSUE 3)", LocalSortPaths},
	{"chaos", "TCP transport under injected connection resets (ISSUE 4)", Chaos},
	{"keytypes", "key domains and record sizes: uint64/float64/string ± payloads (ISSUE 6)", KeyTypesExp},
	{"service", "sorting-as-a-service: concurrent clients vs pgxsortd (ISSUE 7)", ServiceExp},
	{"soak", "self-healing soak: jobs under a randomized failpoint storm (ISSUE 8)", SoakExp},
	{"spill", "out-of-core spill tier: memory budget vs throughput, byte-identity enforced (ISSUE 9)", SpillExp},
	{"memstress", "bounded-memory service: body size vs budget, byte-identity and peak ceiling enforced (ISSUE 10)", MemStressExp},
	{"ablation-investigator", "investigator on/off (DESIGN.md)", AblationInvestigator},
	{"ablation-async", "async vs bulk-synchronous exchange (DESIGN.md)", AblationAsync},
	{"ablation-transport", "chan vs tcp transport (DESIGN.md)", AblationTransport},
	{"baselines", "all four sorters side by side (DESIGN.md)", Baselines},
}

// Experiments lists all registered experiments in registration order.
func Experiments() []Experiment {
	return append([]Experiment(nil), registry...)
}

// Lookup resolves an experiment id (exact match).
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (known: %s)",
		id, strings.Join(ids, ", "))
}

// Run executes the named experiments ("all" runs the full registry) and
// returns the produced tables in order.
func Run(ids []string, c Config) ([]Table, error) {
	var selected []Experiment
	if len(ids) == 1 && ids[0] == "all" {
		selected = Experiments()
	} else {
		for _, id := range ids {
			e, err := Lookup(id)
			if err != nil {
				return nil, err
			}
			selected = append(selected, e)
		}
	}
	var tables []Table
	for _, e := range selected {
		ts, err := e.Run(c)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		tables = append(tables, ts...)
	}
	return tables, nil
}
