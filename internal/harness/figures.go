package harness

import (
	"fmt"
	"runtime"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
)

// Fig4 renders the four input distributions as bucketed percentages
// (paper Figure 4).
func Fig4(c Config) ([]Table, error) {
	c = c.WithDefaults()
	const buckets = 16
	t := Table{
		ID:     "fig4",
		Title:  "Input data distributions (bucket share of keys)",
		Header: []string{"bucket"},
	}
	n := c.N
	if n > 1<<20 {
		n = 1 << 20 // histograms converge long before that
	}
	hists := make([]*dist.Histogram, len(dist.Kinds))
	for i, kind := range dist.Kinds {
		t.Header = append(t.Header, kind.String())
		keys := dist.Gen{Kind: kind, Seed: c.Seed}.Keys(n)
		hists[i] = dist.NewHistogram(keys, dist.DefaultDomain, buckets)
	}
	for b := 0; b < buckets; b++ {
		row := []string{fmt.Sprintf("%2d", b)}
		for _, h := range hists {
			row = append(row, pct(h.Buckets[b], h.Total))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d keys per distribution, domain [0, 2^20)", n))
	return []Table{t}, nil
}

// Fig5 measures PGX.D total sort time per distribution across the
// processor sweep (paper Figure 5).
func Fig5(c Config) ([]Table, error) {
	c = c.WithDefaults()
	t := Table{
		ID:     "fig5",
		Title:  "PGX.D distributed sorting: total execution time (ms)",
		Header: []string{"procs"},
	}
	for _, kind := range dist.Kinds {
		t.Header = append(t.Header, kind.String())
	}
	for _, p := range c.Procs {
		row := []string{fmt.Sprintf("%d", p)}
		for _, kind := range dist.Kinds {
			rep, err := c.runPGXD(c.parts(kind, p), core.Options{})
			if err != nil {
				return nil, err
			}
			row = append(row, ms(rep.Total))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("N=%d keys total, %d workers/proc, transport=%s", c.N, c.Workers, c.Transport),
		"paper shape: times are close across distributions (balance holds for all four)")
	return []Table{t}, nil
}

// Fig6 compares strong scaling of PGX.D and Spark per distribution
// (paper Figure 6).
func Fig6(c Config) ([]Table, error) {
	c = c.WithDefaults()
	var tables []Table
	for _, kind := range dist.Kinds {
		t := Table{
			ID:    "fig6",
			Title: fmt.Sprintf("Strong scaling, %s distribution", kind),
			Header: []string{"procs", "pgxd_ms", "pgxd_speedup",
				"spark_ms", "spark_speedup", "pgxd_vs_spark"},
		}
		var pgxdBase, sparkBase float64
		for i, p := range c.Procs {
			parts := c.parts(kind, p)
			pgxd, err := c.runPGXD(parts, core.Options{})
			if err != nil {
				return nil, err
			}
			spark, err := c.runSpark(parts)
			if err != nil {
				return nil, err
			}
			pg := float64(pgxd.Total.Microseconds())
			sp := float64(spark.Total.Microseconds())
			if i == 0 {
				pgxdBase, sparkBase = pg, sp
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", p),
				ms(pgxd.Total),
				fmt.Sprintf("%.2fx", pgxdBase/pg),
				ms(spark.Total),
				fmt.Sprintf("%.2fx", sparkBase/sp),
				fmt.Sprintf("%.2fx", sp/pg),
			})
		}
		t.Notes = append(t.Notes, "speedups are relative to the smallest processor count",
			"paper shape: PGX.D is ~2x-3x faster than Spark and scales better")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig7 breaks the execution time into the six pipeline steps for the
// normal and right-skewed distributions (paper Figure 7).
func Fig7(c Config) ([]Table, error) {
	c = c.WithDefaults()
	var tables []Table
	for _, kind := range []dist.Kind{dist.Normal, dist.RightSkewed} {
		t := Table{
			ID:     "fig7",
			Title:  fmt.Sprintf("Per-step execution time (ms), %s distribution", kind),
			Header: []string{"step"},
		}
		reports := make([]*core.Report, len(c.Procs))
		for i, p := range c.Procs {
			t.Header = append(t.Header, fmt.Sprintf("p=%d", p))
			rep, err := c.runPGXD(c.parts(kind, p), core.Options{})
			if err != nil {
				return nil, err
			}
			reports[i] = rep
		}
		for s := core.Step(0); s < core.NumSteps; s++ {
			row := []string{s.String()}
			for _, rep := range reports {
				row = append(row, ms(rep.Steps[s]))
			}
			t.Rows = append(t.Rows, row)
		}
		t.Notes = append(t.Notes,
			"paper shape: send/recv costs less than the compute steps (bandwidth-efficient, asynchronous exchange)")
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig8 compares PGX.D and Spark on the Twitter-like graph degree dataset
// (paper Figure 8).
func Fig8(c Config) ([]Table, error) {
	c = c.WithDefaults()
	degrees := c.twitterDegrees()
	t := Table{
		ID:     "fig8",
		Title:  "Twitter-like graph degree sort: PGX.D vs Spark",
		Header: []string{"procs", "pgxd_ms", "spark_ms", "pgxd_vs_spark", "pgxd_imbalance", "spark_imbalance"},
	}
	for _, p := range c.Procs {
		parts := core.Blocks(degrees, p)
		pgxd, err := c.runPGXD(parts, core.Options{})
		if err != nil {
			return nil, err
		}
		spark, err := c.runSpark(parts)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			ms(pgxd.Total),
			ms(spark.Total),
			fmt.Sprintf("%.2fx", float64(spark.Total)/float64(pgxd.Total)),
			fmt.Sprintf("%.3f", pgxd.LoadImbalance()),
			fmt.Sprintf("%.3f", spark.LoadImbalance()),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("RMAT scale %d: %d vertices, degree keys are duplicate-heavy", c.TwitterScale, len(degrees)),
		"paper shape: ~2.6x over Spark at the top of the sweep; PGX.D stays balanced on duplicates")
	return []Table{t}, nil
}

// Fig9 sweeps the sample-size factor and reports communication overhead
// and total time (paper Figure 9).
func Fig9(c Config) ([]Table, error) {
	c = c.WithDefaults()
	degrees := c.twitterDegrees()
	p := c.Procs[len(c.Procs)/2]
	parts := core.Blocks(degrees, p)
	factors := []float64{0.004, 0.04, 0.4, 1.0, 1.004, 1.04, 1.4}
	t := Table{
		ID:    "fig9",
		Title: fmt.Sprintf("Sample-size sweep on Twitter-like degrees, p=%d (X = 256KB/p)", p),
		Header: []string{"factor", "samples/proc", "comm_bytes", "comm_ms",
			"total_ms", "imbalance"},
	}
	for _, f := range factors {
		rep, err := c.runPGXD(parts, core.Options{SampleFactor: f})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3fX", f),
			fmt.Sprintf("%d", rep.SamplesPerProc),
			fmt.Sprintf("%d", rep.BytesSent),
			ms(rep.CommTime),
			ms(rep.Total),
			fmt.Sprintf("%.3f", rep.LoadImbalance()),
		})
	}
	t.Notes = append(t.Notes,
		"imbalance falls to ~1 by X (factor 1.0); once a node samples every key it holds, a larger factor changes nothing",
		"comm_bytes is summed over all nodes, so it grows with the factor by the sample bytes alone;",
		"the paper's claim that tiny samples raise communication is about the busiest node, which this table does not report")
	return []Table{t}, nil
}

// Fig10 reports the min and max per-processor loads for three sample-size
// factors across the processor sweep (paper Figure 10).
func Fig10(c Config) ([]Table, error) {
	c = c.WithDefaults()
	degrees := c.twitterDegrees()
	factors := []float64{0.004, 1.0, 1.4}
	t := Table{
		ID:     "fig10",
		Title:  "Per-processor load (min/max entries) vs sample size, Twitter-like degrees",
		Header: []string{"procs"},
	}
	for _, f := range factors {
		t.Header = append(t.Header,
			fmt.Sprintf("min@%.3fX", f), fmt.Sprintf("max@%.3fX", f))
	}
	for _, p := range c.Procs {
		parts := core.Blocks(degrees, p)
		row := []string{fmt.Sprintf("%d", p)}
		for _, f := range factors {
			rep, err := c.runPGXD(parts, core.Options{SampleFactor: f})
			if err != nil {
				return nil, err
			}
			minPart, maxPart := rep.MinMaxPart()
			row = append(row, fmt.Sprintf("%d", minPart), fmt.Sprintf("%d", maxPart))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: 0.004X leaves large min/max gaps; X and 1.4X stay balanced everywhere")
	return []Table{t}, nil
}

// Fig11 reports memory use versus processor count on the Twitter-like
// dataset (paper Figure 11): resident entry storage (the RSS analogue) and
// the peak of temporary allocations.
func Fig11(c Config) ([]Table, error) {
	c = c.WithDefaults()
	degrees := c.twitterDegrees()
	t := Table{
		ID:    "fig11",
		Title: "Memory per processor on Twitter-like degrees (MB)",
		Header: []string{"procs", "resident_total", "resident_per_proc",
			"temp_peak_per_proc", "go_heap"},
	}
	mb := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
	for _, p := range c.Procs {
		parts := core.Blocks(degrees, p)
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		rep, err := c.runPGXD(parts, core.Options{})
		if err != nil {
			return nil, err
		}
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			mb(rep.ResidentBytes),
			mb(rep.ResidentBytes / int64(p)),
			mb(rep.TempPeakBytes),
			mb(int64(msAfter.HeapAlloc)),
		})
	}
	t.Notes = append(t.Notes,
		"resident = entry storage (key + origin per entry, the paper's RSS);",
		"temp peak = merge scratch + receive assembly, freed at the end (the paper's light-blue bars)",
		fmt.Sprintf("dataset: %d degree keys", len(degrees)))
	return []Table{t}, nil
}
