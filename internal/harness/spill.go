package harness

import (
	"fmt"

	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
)

// SpillExp sweeps the out-of-core tier (ISSUE 9): the same dataset sorts
// under per-node memory budgets of unlimited, 1/2, 1/10 and 1/20 of one
// node's resident entry bytes, and every budgeted run must be
// byte-identical to the unbudgeted reference while reporting how much it
// spilled. The CSV rows chart the budget/throughput trade: total_ms
// against spill_bytes and read_amp (spill bytes read back per byte
// written — 1.00 means every spilled byte was fetched exactly once, the
// block-file format's designed amplification).
func SpillExp(c Config) ([]Table, error) {
	c = c.WithDefaults()
	p := c.Procs[0]
	parts := c.parts(dist.Uniform, p)

	// The budgeted runs' stream merge breaks ties by source order exactly
	// like the resident balanced merge, so the differential check below
	// can demand exact equality.
	opts, err := c.engineOpts(p, core.Options{MemoryBudget: -1})
	if err != nil {
		return nil, err
	}
	ref, refRep, err := spillRun(opts, parts)
	if err != nil {
		return nil, err
	}
	if refRep.SpillBytes != 0 {
		return nil, fmt.Errorf("unbudgeted reference spilled %d bytes", refRep.SpillBytes)
	}
	perNode := refRep.ResidentBytes / int64(p)

	t := Table{
		ID: "spill",
		Title: fmt.Sprintf("Out-of-core spill tier: memory budget vs throughput, p=%d, %d keys/node",
			p, len(parts[0])),
		Header: []string{"budget", "budget_bytes", "total_ms", "spill_bytes",
			"spill_reads", "read_amp", "temp_peak_bytes", "identical"},
	}
	points := []struct {
		label string
		denom int64 // 0 = unlimited
	}{
		{"unlimited", 0}, {"1/2", 2}, {"1/10", 10}, {"1/20", 20},
	}
	for _, pt := range points {
		o := opts
		o.MemoryBudget = -1
		if pt.denom > 0 {
			o.MemoryBudget = perNode / pt.denom
		}
		got, rep, err := spillRun(o, parts)
		if err != nil {
			return nil, fmt.Errorf("budget %s: %w", pt.label, err)
		}
		if err := sameEntries(ref, got); err != nil {
			return nil, fmt.Errorf("budget %s not byte-identical to unbudgeted run: %w", pt.label, err)
		}
		if pt.denom >= 10 && rep.SpillBytes == 0 {
			return nil, fmt.Errorf("budget %s (%d bytes) did not spill", pt.label, o.MemoryBudget)
		}
		readAmp := "-"
		if rep.SpillBytes > 0 {
			readAmp = fmt.Sprintf("%.2f", float64(rep.SpillReads)/float64(rep.SpillBytes))
		}
		budgetBytes := int64(0)
		if pt.denom > 0 {
			budgetBytes = o.MemoryBudget
		}
		t.Rows = append(t.Rows, []string{
			pt.label,
			fmt.Sprintf("%d", budgetBytes),
			ms(rep.Total),
			fmt.Sprintf("%d", rep.SpillBytes),
			fmt.Sprintf("%d", rep.SpillReads),
			readAmp,
			fmt.Sprintf("%d", rep.TempPeakBytes),
			"yes", // sameEntries above would have errored otherwise
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("N=%d keys, %d workers/proc, uniform keys", c.N, c.Workers),
		fmt.Sprintf("budgets are fractions of one node's resident entry bytes (%d)", perNode),
		"every budgeted run is verified byte-identical (key, origin, index) to the",
		"unbudgeted reference; read_amp is spill bytes read back per byte written")
	return []Table{t}, nil
}

// spillRun sorts parts on a fresh engine and returns the flattened
// output with its report (single rep: the differential check needs the
// entries, not just the fastest timing).
func spillRun(opts core.Options, parts [][]uint64) ([]comm.Entry[uint64], *core.Report, error) {
	eng, err := newU64Engine(opts)
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	res, err := eng.Sort(parts)
	if err != nil {
		return nil, nil, err
	}
	var flat []comm.Entry[uint64]
	for _, part := range res.Parts {
		flat = append(flat, part...)
	}
	return flat, &res.Report, nil
}

// sameEntries demands exact (key, origin, index) equality.
func sameEntries(a, b []comm.Entry[uint64]) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Proc != b[i].Proc || a[i].Index != b[i].Index {
			return fmt.Errorf("entry %d: %+v != %+v", i, a[i], b[i])
		}
	}
	return nil
}
