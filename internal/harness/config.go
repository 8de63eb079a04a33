package harness

import (
	"fmt"
	"time"

	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/graph"
	"pgxsort/internal/spark"
	"pgxsort/internal/transport"
)

// Config scales the experiments. The paper ran 1 billion keys on a
// 32-machine cluster; the defaults here are laptop-scale but preserve the
// figures' shapes (README.md, "Reproducing the paper").
type Config struct {
	// N is the total key count for the Figure 4-7 / Table II datasets.
	N int
	// Procs is the processor sweep (paper: 8..52).
	Procs []int
	// Workers is the per-processor worker count (paper: 32).
	Workers int
	// Seed drives all generators.
	Seed uint64
	// Transport selects chan or tcp.
	Transport string
	// TwitterScale is the RMAT scale of the Twitter stand-in (2^scale
	// vertices, 16x edges).
	TwitterScale int
	// Reps repeats each timed point, keeping the fastest run.
	Reps int
	// ListenAddrs / PeerAddrs bind the TCP transport to explicit
	// addresses (the CLIs' -listen/-peers flags). They only apply when a
	// sweep point's processor count matches their length; other points
	// error out rather than silently fall back to loopback.
	ListenAddrs []string
	PeerAddrs   []string
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.N <= 0 {
		c.N = 1 << 20
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{8, 16, 32, 52}
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Seed == 0 {
		c.Seed = 20170529 // IPDPS'17 venue date
	}
	if c.Transport == "" {
		c.Transport = transport.KindChan
	}
	if c.TwitterScale <= 0 {
		c.TwitterScale = 16
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	return c
}

// parts generates the per-processor input for one distribution: c.N
// keys in all, block-distributed as core.Blocks sizes them (sizes differ
// by at most one), so a table that prints N shows shares of N. The
// right-skewed and exponential datasets use a value domain that scales
// with N so they contain "many duplicated data entries" at any experiment
// size, as the paper describes them (§V, Figure 4c/4d).
func (c Config) parts(kind dist.Kind, procs int) [][]uint64 {
	var domain uint64 // 0 means the generator default
	switch kind {
	case dist.RightSkewed:
		// The modal value holds ~44% of all keys: it spans several
		// splitters, as in the paper's Table II where the duplicated
		// value covers most of the ten processors.
		domain = 64
	case dist.Exponential:
		// ~63% of keys share the modal value (the investigator needs a
		// value's share to exceed 2/p before splitters duplicate).
		domain = 12
	}
	parts := make([][]uint64, procs)
	for i := range parts {
		per := (i+1)*c.N/procs - i*c.N/procs
		parts[i] = dist.Gen{Kind: kind, Seed: c.Seed + uint64(i)*7919, Domain: domain}.Keys(per)
	}
	return parts
}

// twitterDegrees builds the Twitter stand-in and extracts its degree keys.
func (c Config) twitterDegrees() []uint64 {
	g := graph.TwitterLike(graph.RMATConfig{Scale: c.TwitterScale, EdgeFactor: 16, Seed: c.Seed})
	return g.Degrees()
}

// engineOpts resolves the per-measurement engine options from the sweep
// config: worker/transport defaults and the explicit TCP addresses
// (validated against the point's processor count).
func (c Config) engineOpts(procs int, opts core.Options) (core.Options, error) {
	opts.Procs = procs
	if opts.WorkersPerProc == 0 {
		opts.WorkersPerProc = c.Workers
	}
	if opts.Transport == "" {
		opts.Transport = c.Transport
	}
	if len(c.ListenAddrs) > 0 || len(c.PeerAddrs) > 0 {
		if len(c.ListenAddrs) > 0 && len(c.ListenAddrs) != opts.Procs {
			return opts, fmt.Errorf("harness: %d listen addresses for a %d-processor point", len(c.ListenAddrs), opts.Procs)
		}
		if len(c.PeerAddrs) > 0 && len(c.PeerAddrs) != opts.Procs {
			return opts, fmt.Errorf("harness: %d peer addresses for a %d-processor point", len(c.PeerAddrs), opts.Procs)
		}
		opts.TCP.Listen = c.ListenAddrs
		opts.TCP.Peers = c.PeerAddrs
	}
	return opts, nil
}

// sortPGXD sorts parts on a fresh engine (so memory accounting starts
// clean) Reps times and returns the fastest run's result.
func (c Config) sortPGXD(parts [][]uint64, opts core.Options) (*core.Result[uint64], error) {
	opts, err := c.engineOpts(len(parts), opts)
	if err != nil {
		return nil, err
	}
	var best *core.Result[uint64]
	for r := 0; r < c.Reps; r++ {
		eng, err := core.NewEngine[uint64](opts, comm.U64Codec{})
		if err != nil {
			return nil, err
		}
		res, err := eng.Sort(parts)
		eng.Close()
		if err != nil {
			return nil, err
		}
		if best == nil || res.Report.Total < best.Report.Total {
			best = res
		}
	}
	return best, nil
}

// runPGXD is sortPGXD for the experiments that only read the report.
func (c Config) runPGXD(parts [][]uint64, opts core.Options) (*core.Report, error) {
	res, err := c.sortPGXD(parts, opts)
	if err != nil {
		return nil, err
	}
	return &res.Report, nil
}

// runSpark sorts parts with the Spark baseline, each stage one task
// goroutine per partition as the PGX.D engine runs one per processor.
func (c Config) runSpark(parts [][]uint64) (*spark.Report, error) {
	var best *spark.Report
	for r := 0; r < c.Reps; r++ {
		sc := spark.NewContext(spark.Config{Partitions: len(parts), Seed: c.Seed})
		rdd, err := spark.FromParts(sc, parts)
		if err != nil {
			return nil, err
		}
		_, rep := spark.SortByKey(rdd, comm.U64Codec{})
		if best == nil || rep.Total < best.Total {
			best = rep
		}
	}
	return best, nil
}

// ms formats a duration in milliseconds with 2 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// pct formats a ratio as a percentage with 3 decimals (Table II style).
func pct(part, total int) string {
	if total == 0 {
		return "0.000%"
	}
	return fmt.Sprintf("%.3f%%", 100*float64(part)/float64(total))
}
