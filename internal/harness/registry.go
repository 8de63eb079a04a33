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

// registry maps experiment ids to runners: one per table and figure of
// the paper's evaluation (§V), then the four ablations of its design
// choices. Nothing else registers here — the speed of the shipped system
// is benchmark/'s to measure, its behaviour under faults and budgets the
// tests' to assert — so "all" means "the paper".
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
	{"ablation-investigator", "investigator on/off: exact-rank cuts (Figure 3c) vs the naive search of 3b", AblationInvestigator},
	{"ablation-async", "step 5 exchange: asynchronous overlap vs bulk-synchronous barrier", AblationAsync},
	{"ablation-transport", "transport: in-process channels vs TCP loopback", AblationTransport},
	{"baselines", "all four sorters side by side (paper §II related work)", Baselines},
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
