package harness

import (
	"cmp"
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
// figures' shapes (see EXPERIMENTS.md).
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
	// Inflight is the SortMany scheduler's admission cap for the
	// pipeline experiment (default 2).
	Inflight int
	// LocalSort forces a step-1 path for every experiment that does not
	// sweep paths itself (default core.LocalSortAuto).
	LocalSort core.LocalSortMode
	// ListenAddrs / PeerAddrs bind the TCP transport to explicit
	// addresses (the CLIs' -listen/-peers flags). They only apply when a
	// sweep point's processor count matches their length; other points
	// error out rather than silently fall back to loopback.
	ListenAddrs []string
	PeerAddrs   []string
	// KeyType restricts the keytypes experiment to one key domain
	// (empty = sweep uint64, float64 and string). The calibrated
	// uint64-space experiments ignore it.
	KeyType dist.KeyType
	// RecBytes is the payload size the keytypes experiment attaches per
	// key on its record-path points (0 = the experiment's default sweep).
	RecBytes int
	// MemBudget applies core.Options.MemoryBudget to every experiment
	// engine that does not set a budget itself (the spill experiment
	// sweeps its own). Zero = unlimited (subject to PGXSORT_MEM_BUDGET);
	// negative = explicitly unlimited.
	MemBudget int64
	// SpillDir is where budgeted engines place their spill run files
	// (empty = system temp dir).
	SpillDir string
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
	if c.Inflight <= 0 {
		c.Inflight = core.DefaultMaxInflight
	}
	return c
}

// parts generates the per-processor input for one distribution. The
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
	per := c.N / procs
	for i := range parts {
		parts[i] = dist.Gen{Kind: kind, Seed: c.Seed + uint64(i)*7919, Domain: domain}.Keys(per)
	}
	return parts
}

// twitterDegrees builds the Twitter stand-in and extracts its degree keys.
func (c Config) twitterDegrees() []uint64 {
	g := graph.TwitterLike(graph.RMATConfig{Scale: c.TwitterScale, EdgeFactor: 16, Seed: c.Seed})
	return g.Degrees(nil)
}

// newU64Engine builds a uint64-keyed engine.
func newU64Engine(opts core.Options) (*core.Engine[uint64], error) {
	return core.NewEngine[uint64](opts, comm.U64Codec{})
}

// engineOpts resolves the per-measurement engine options from the sweep
// config: worker/transport/path defaults and the explicit TCP addresses
// (validated against the point's processor count).
func (c Config) engineOpts(procs int, opts core.Options) (core.Options, error) {
	opts.Procs = procs
	if opts.WorkersPerProc == 0 {
		opts.WorkersPerProc = c.Workers
	}
	if opts.Transport == "" {
		opts.Transport = c.Transport
	}
	if opts.LocalSort == core.LocalSortAuto {
		opts.LocalSort = c.LocalSort
	}
	if opts.MemoryBudget == 0 {
		opts.MemoryBudget = c.MemBudget
	}
	if opts.SpillDir == "" {
		opts.SpillDir = c.SpillDir
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

// runPGXD sorts parts on a fresh engine and returns the best-of-Reps
// report. Engines are per-measurement so memory accounting starts clean.
func (c Config) runPGXD(parts [][]uint64, opts core.Options) (*core.Report, error) {
	return runKeyed(c, parts, comm.U64Codec{}, nil, opts)
}

// runKeyed is runPGXD generalized over the key domain: it sorts parts with
// the given codec on a fresh engine per rep and keeps the fastest report.
// When payloads is non-nil (indexed like parts), the keys travel as records
// through a payload-carrying codec instead.
func runKeyed[K cmp.Ordered](c Config, parts [][]K, codec comm.Codec[K],
	payloads [][][]byte, opts core.Options) (*core.Report, error) {
	opts, err := c.engineOpts(len(parts), opts)
	if err != nil {
		return nil, err
	}
	var recs [][]comm.Record[K]
	if payloads != nil {
		codec = comm.NewRecordCodec[K](codec)
		recs = make([][]comm.Record[K], len(parts))
		for i, part := range parts {
			recs[i] = make([]comm.Record[K], len(part))
			for j, k := range part {
				recs[i][j] = comm.Record[K]{Key: k, Payload: payloads[i][j]}
			}
		}
	}
	var best *core.Report
	for r := 0; r < c.Reps; r++ {
		eng, err := core.NewEngine[K](opts, codec)
		if err != nil {
			return nil, err
		}
		var res *core.Result[K]
		if recs != nil {
			res, err = eng.SortRecords(recs)
		} else {
			res, err = eng.Sort(parts)
		}
		eng.Close()
		if err != nil {
			return nil, err
		}
		if best == nil || res.Report.Total < best.Total {
			rep := res.Report
			best = &rep
		}
	}
	return best, nil
}

// runSpark sorts parts with the Spark baseline, cores matched to the PGX.D
// engine's total worker count.
func (c Config) runSpark(parts [][]uint64) (*spark.Report, error) {
	var best *spark.Report
	for r := 0; r < c.Reps; r++ {
		sc := spark.NewContext(spark.Config{
			Partitions: len(parts),
			TotalCores: len(parts) * c.Workers,
			Seed:       c.Seed,
		})
		rdd, err := spark.FromParts(sc, parts)
		if err != nil {
			sc.Close()
			return nil, err
		}
		_, rep := spark.SortByKey(rdd, comm.U64Codec{})
		sc.Close()
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
