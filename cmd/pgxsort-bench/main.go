// Command pgxsort-bench regenerates the tables and figures of the paper's
// evaluation section (§V). Each experiment prints the rows/series the
// paper plots; -csv exports them for external plotting. It measures the
// paper's shapes, not the shipped system's speed (bash benchmark/run.sh)
// or its behaviour under faults and budgets (go test).
//
// Usage:
//
//	pgxsort-bench -list
//	pgxsort-bench -exp fig5,fig6 -n 2000000 -procs 8,16,32,52
//	pgxsort-bench -exp all -csv out/
//	pgxsort-bench -exp fig5 -csv -                  # CSV to stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

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
	)
	flag.Parse()

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
		ListenAddrs:  tp.SplitAddrs(*listen),
		PeerAddrs:    tp.SplitAddrs(*peers),
	}
	if (len(cfg.ListenAddrs) > 0 || len(cfg.PeerAddrs) > 0) && *transport != "tcp" {
		fatal(fmt.Errorf("-listen/-peers require -transport tcp"))
	}

	tables, err := harness.Run(expIDs(*exp), cfg)
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

// expIDs splits the -exp list.
func expIDs(exp string) []string {
	ids := strings.Split(exp, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
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
