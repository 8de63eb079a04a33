// Command pgxsort-bench regenerates the tables and figures of the paper's
// evaluation section (§V). Each experiment prints the rows/series the
// paper plots; -csv exports them for external plotting or for the CI
// benchmark-trajectory artifact.
//
// Usage:
//
//	pgxsort-bench -list
//	pgxsort-bench -exp fig5,fig6 -n 2000000 -procs 8,16,32,52
//	pgxsort-bench -exp all -csv out/
//	pgxsort-bench -exp fig5 -pipeline -csv -        # CSV to stdout (CI)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/harness"
	tp "pgxsort/internal/transport"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		list      = flag.Bool("list", false, "list experiments and exit")
		n         = flag.Int("n", 1<<20, "total keys for the distribution datasets")
		procs     = flag.String("procs", "8,16,32,52", "comma-separated processor sweep")
		workers   = flag.Int("workers", 2, "worker threads per processor")
		seed      = flag.Uint64("seed", 0, "generator seed (0 = default)")
		transport = flag.String("transport", "chan", "transport: chan or tcp")
		listen    = flag.String("listen", "", "comma-separated per-node TCP listen addresses (tcp transport; must match every -procs value)")
		peers     = flag.String("peers", "", "comma-separated per-node TCP dial addresses (tcp transport; must match every -procs value)")
		twScale   = flag.Int("twitter-scale", 16, "RMAT scale of the Twitter stand-in (2^scale vertices)")
		reps      = flag.Int("reps", 1, "repetitions per timed point (fastest kept)")
		csvOut    = flag.String("csv", "", "CSV output: a directory for per-table files, or '-' for stdout (tables then go to stderr)")
		pipeline  = flag.Bool("pipeline", false, "also run the SortMany pipeline sweep (shorthand for adding 'pipeline' to -exp)")
		inflight  = flag.Int("inflight", 0, "SortMany scheduler admission cap for the pipeline sweep (0 = default)")
		localSort = flag.String("localsort", "auto", "step-1 path for all experiments: auto or comparison")
		keytype   = flag.String("keytype", "", "restrict the keytypes experiment to one key domain: uint64, float64 or string (empty = sweep all)")
		recBytes  = flag.Int("recbytes", 0, "payload bytes per key for the keytypes experiment's record points (0 = default sweep)")
		memBudget = flag.String("mem-budget", "", "per-node temporary-memory budget for experiments that do not sweep it (e.g. 64M; the spill experiment sweeps its own)")
		spillDir  = flag.String("spill-dir", "", "directory for spill run files (default: system temp dir)")
	)
	flag.Parse()

	lsMode, err := core.ParseLocalSortMode(*localSort)
	if err != nil {
		fatal(err)
	}
	var ktype dist.KeyType
	if *keytype != "" {
		if ktype, err = dist.ParseKeyType(*keytype); err != nil {
			fatal(err)
		}
	}
	if *recBytes < 0 {
		fatal(fmt.Errorf("-recbytes must be >= 0, got %d", *recBytes))
	}
	budget, err := core.ParseMemBudget(*memBudget)
	if err != nil {
		fatal(err)
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-22s %s\n", e.ID, e.Desc)
		}
		return
	}

	procList, err := parseInts(*procs)
	if err != nil {
		fatal(err)
	}
	cfg := harness.Config{
		N:            *n,
		Procs:        procList,
		Workers:      *workers,
		Seed:         *seed,
		Transport:    *transport,
		TwitterScale: *twScale,
		Reps:         *reps,
		Inflight:     *inflight,
		LocalSort:    lsMode,
		ListenAddrs:  tp.SplitAddrs(*listen),
		PeerAddrs:    tp.SplitAddrs(*peers),
		KeyType:      ktype,
		RecBytes:     *recBytes,
		MemBudget:    budget,
		SpillDir:     *spillDir,
	}
	if (len(cfg.ListenAddrs) > 0 || len(cfg.PeerAddrs) > 0) && *transport != "tcp" {
		fatal(fmt.Errorf("-listen/-peers require -transport tcp"))
	}

	tables, err := harness.Run(expIDs(*exp, *pipeline), cfg)
	if err != nil {
		fatal(err)
	}

	// With -csv -, the machine-readable stream owns stdout; keep the
	// human-readable tables on stderr so both remain usable in CI logs.
	tableOut := os.Stdout
	if *csvOut == "-" {
		tableOut = os.Stderr
	}
	counts := map[string]int{}
	for i := range tables {
		fmt.Fprintln(tableOut, tables[i].Render())
		switch *csvOut {
		case "":
		case "-":
			fmt.Printf("# == %s: %s\n%s\n", tables[i].ID, tables[i].Title, tables[i].CSV())
		default:
			counts[tables[i].ID]++
			n := 0
			if counts[tables[i].ID] > 1 {
				n = counts[tables[i].ID]
			}
			path, err := tables[i].WriteCSV(*csvOut, n)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(tableOut, "(csv: %s)\n\n", path)
		}
	}
}

// expIDs resolves the -exp list, appending the pipeline sweep when the
// -pipeline shorthand asks for it and the list doesn't already run it.
func expIDs(exp string, pipeline bool) []string {
	ids := strings.Split(exp, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	if pipeline {
		all := len(ids) == 1 && ids[0] == "all"
		seen := false
		for _, id := range ids {
			if id == "pipeline" {
				seen = true
			}
		}
		if !all && !seen {
			ids = append(ids, "pipeline")
		}
	}
	return ids
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no processor counts given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgxsort-bench:", err)
	os.Exit(1)
}
