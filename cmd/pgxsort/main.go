// Command pgxsort generates, sorts and verifies key files with the
// distributed sorting library.
//
// Usage:
//
//	pgxsort generate -kind right-skewed -n 1000000 -out keys.bin
//	pgxsort sort     -in keys.bin -out sorted.bin -procs 8 -workers 4
//	pgxsort verify   -in sorted.bin
//	pgxsort describe -in keys.bin
//	pgxsort submit   -in keys.bin -out sorted.bin -server http://host:7421
//
// Every subcommand takes -keytype uint64|float64|string (default uint64).
// uint64 and float64 files are little-endian 8-byte arrays (float64 as
// IEEE-754 bits); string files are uint32-LE length-prefixed records.
// sort -recbytes N attaches an N-byte synthetic payload to every key and
// sorts through the record path, so payload movement shows in the report.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"os"

	"pgxsort"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	tp "pgxsort/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "sort":
		err = cmdSort(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "describe", "info": // info is the historical name
		err = cmdDescribe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgxsort:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pgxsort <generate|sort|verify|describe|submit> [flags]
  generate -kind <uniform|normal|right-skewed|exponential|...> -n N [-seed S] [-domain D] [-keytype uint64|float64|string] [-prefix P] -out FILE
  sort     -in FILE -out FILE [-keytype T] [-recbytes N] [-procs P] [-workers W] [-transport chan|tcp] [-listen A1,..,AP] [-peers A1,..,AP] [-sample-factor F] [-no-investigator]
  verify   -in FILE [-keytype T]
  describe -in FILE [-keytype T]
  submit   -in FILE [-out FILE] [-server URL] [-keytype T] [-tenant NAME] [-deadline D] [-topk K [-bottom]] [-rank KEY] [-no-cache]`)
	os.Exit(2)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kind := fs.String("kind", "uniform", "distribution kind")
	n := fs.Int("n", 1<<20, "number of keys")
	seed := fs.Uint64("seed", 1, "generator seed")
	domain := fs.Uint64("domain", 0, "value domain (0 = default)")
	keytype := fs.String("keytype", "uint64", "key type: uint64, float64 or string")
	prefix := fs.String("prefix", "", "shared key prefix (string keytype only)")
	out := fs.String("out", "", "output file")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("generate: -out required")
	}
	if *n < 0 {
		return fmt.Errorf("generate: -n must be >= 0, got %d", *n)
	}
	k, err := dist.ParseKind(*kind)
	if err != nil {
		return err
	}
	kt, err := dist.ParseKeyType(*keytype)
	if err != nil {
		return err
	}
	if *prefix != "" && kt != dist.KeyString {
		return fmt.Errorf("generate: -prefix only applies to -keytype string")
	}
	g := dist.Gen{Kind: k, Seed: *seed, Domain: *domain}
	switch kt {
	case dist.KeyUint64:
		if err := writeKeys(*out, g.Keys(*n)); err != nil {
			return err
		}
	case dist.KeyFloat64:
		if err := writeFloats(*out, g.Floats(*n)); err != nil {
			return err
		}
	case dist.KeyString:
		if err := writeStrings(*out, g.Strings(*n, *prefix)); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d %s %s keys to %s\n", *n, k, kt, *out)
	return nil
}

func cmdSort(args []string) error {
	fs := flag.NewFlagSet("sort", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	out := fs.String("out", "", "output file")
	procs := fs.Int("procs", 8, "simulated processors")
	workers := fs.Int("workers", 2, "workers per processor")
	transport := fs.String("transport", "chan", "transport: chan or tcp")
	listen := fs.String("listen", "", "comma-separated per-node TCP listen addresses (tcp transport; empty = loopback ephemeral)")
	peers := fs.String("peers", "", "comma-separated per-node TCP dial addresses (tcp transport; empty = the bound listen addresses)")
	factor := fs.Float64("sample-factor", 1.0, "sample size factor (paper's X multiplier)")
	noInv := fs.Bool("no-investigator", false, "disable the duplicate-splitter investigator")
	keytype := fs.String("keytype", "uint64", "key type: uint64, float64 or string")
	recBytes := fs.Int("recbytes", 0, "attach an N-byte synthetic payload per key (sorts through the record path)")
	memBudget := fs.String("mem-budget", "", "per-node temporary-memory budget (e.g. 64M, 2G); sorts spill runs to scratch files in -spill-dir beyond it")
	spillDir := fs.String("spill-dir", "", "directory for spill scratch files (default: system temp dir)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("sort: -in and -out required")
	}
	if *recBytes < 0 {
		return fmt.Errorf("sort: -recbytes must be >= 0, got %d", *recBytes)
	}
	kt, err := dist.ParseKeyType(*keytype)
	if err != nil {
		return fmt.Errorf("sort: %w", err)
	}
	tcpCfg, err := tcpConfig(*transport, *listen, *peers, *procs)
	if err != nil {
		return fmt.Errorf("sort: %w", err)
	}
	budget, err := pgxsort.ParseMemBudget(*memBudget)
	if err != nil {
		return fmt.Errorf("sort: %w", err)
	}
	opts := pgxsort.Options{
		Procs:               *procs,
		WorkersPerProc:      *workers,
		Transport:           *transport,
		TCP:                 tcpCfg,
		SampleFactor:        *factor,
		DisableInvestigator: *noInv,
		MemoryBudget:        budget,
		SpillDir:            *spillDir,
	}
	var n int
	switch kt {
	case dist.KeyUint64:
		n, err = sortFile(*in, *out, opts, *recBytes, readKeys, writeKeys)
	case dist.KeyFloat64:
		n, err = sortFile(*in, *out, opts, *recBytes, readFloats, writeFloats)
	case dist.KeyString:
		n, err = sortFile(*in, *out, opts, *recBytes, readStrings, writeStrings)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d sorted keys to %s\n", n, *out)
	return nil
}

// sortFile reads keys, sorts them (through the record path, with synthetic
// payloads, when recBytes > 0), prints the report, and writes the sorted
// keys back out in the same file format.
func sortFile[K cmp.Ordered](in, out string, opts pgxsort.Options,
	recBytes int, read func(string) ([]K, error), write func(string, []K) error) (int, error) {
	keys, err := read(in)
	if err != nil {
		return 0, err
	}
	var sorted []K
	var report *pgxsort.Report
	if recBytes == 0 {
		sorted, report, err = pgxsort.Sort(keys, opts)
		if err != nil {
			return 0, err
		}
	} else {
		res, err := sortWithPayloads(keys, opts, recBytes)
		if err != nil {
			return 0, err
		}
		sorted, report = res.Keys(), &res.Report
	}
	fmt.Print(report.String())
	if err := write(out, sorted); err != nil {
		return 0, err
	}
	return len(sorted), nil
}

// sortWithPayloads runs the record path: every key gets a deterministic
// recBytes-byte payload, the records are block-distributed across the
// processors and sorted with a payload-carrying codec.
func sortWithPayloads[K cmp.Ordered](keys []K, opts pgxsort.Options, recBytes int) (*pgxsort.Result[K], error) {
	c, err := pgxsort.NewRecordCluster[K](opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	payloads := dist.Gen{Seed: uint64(len(keys))}.Payloads(len(keys), recBytes)
	p := opts.Procs
	if p <= 0 {
		p = 4
	}
	recs := make([]pgxsort.Record[K], len(keys))
	for i, k := range keys {
		recs[i] = pgxsort.Record[K]{Key: k, Payload: payloads[i]}
	}
	return c.SortRecords(core.Blocks(recs, p))
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	keytype := fs.String("keytype", "uint64", "key type: uint64, float64 or string")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("verify: -in required")
	}
	kt, err := dist.ParseKeyType(*keytype)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	var n int
	switch kt {
	case dist.KeyUint64:
		n, err = verifyFile(*in, readKeys, func(a, b uint64) bool { return b < a })
	case dist.KeyFloat64:
		// Floats are ordered by the IEEE-754 total order the engine sorts
		// into, so files containing NaN or -0.0 verify too.
		n, err = verifyFile(*in, readFloats, func(a, b float64) bool { return f64TotalLess(b, a) })
	case dist.KeyString:
		n, err = verifyFile(*in, readStrings, func(a, b string) bool { return b < a })
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d %s keys, sorted\n", *in, n, kt)
	return nil
}

// verifyFile checks the file's keys are sorted; greater reports a > b in
// the key type's sort order.
func verifyFile[K any](in string, read func(string) ([]K, error), greater func(a, b K) bool) (int, error) {
	keys, err := read(in)
	if err != nil {
		return 0, err
	}
	for i := 1; i < len(keys); i++ {
		if greater(keys[i-1], keys[i]) {
			return 0, fmt.Errorf("NOT sorted: order violated at index %d (%v < %v)",
				i, keys[i], keys[i-1])
		}
	}
	return len(keys), nil
}

func cmdDescribe(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	keytype := fs.String("keytype", "uint64", "key type: uint64, float64 or string")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("describe: -in required")
	}
	kt, err := dist.ParseKeyType(*keytype)
	if err != nil {
		return fmt.Errorf("describe: %w", err)
	}
	switch kt {
	case dist.KeyFloat64:
		return describeFloats(*in)
	case dist.KeyString:
		return describeStrings(*in)
	}
	keys, err := readKeys(*in)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		fmt.Printf("%s: empty\n", *in)
		return nil
	}
	minK, maxK := keys[0], keys[0]
	for _, k := range keys {
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
	}
	fmt.Printf("%s: %d keys, min %d, max %d, duplicate ratio %.3f\n",
		*in, len(keys), minK, maxK, dist.DuplicateRatio(keys))
	domain := maxK + 1
	if domain == 0 { // maxK is MaxUint64; keep the top key in range
		domain = math.MaxUint64
	}
	h := dist.NewHistogram(keys, domain, 16)
	fmt.Print(h.Render(48))
	return nil
}

func describeFloats(in string) error {
	keys, err := readFloats(in)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		fmt.Printf("%s: empty\n", in)
		return nil
	}
	minK, maxK := keys[0], keys[0]
	nan := 0
	for _, k := range keys {
		if k != k {
			nan++
			continue
		}
		if f64TotalLess(k, minK) || minK != minK {
			minK = k
		}
		if f64TotalLess(maxK, k) || maxK != maxK {
			maxK = k
		}
	}
	fmt.Printf("%s: %d float64 keys, min %g, max %g, NaN %d\n", in, len(keys), minK, maxK, nan)
	return nil
}

func describeStrings(in string) error {
	keys, err := readStrings(in)
	if err != nil {
		return err
	}
	if len(keys) == 0 {
		fmt.Printf("%s: empty\n", in)
		return nil
	}
	minK, maxK := keys[0], keys[0]
	bytes := 0
	for _, k := range keys {
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
		bytes += len(k)
	}
	fmt.Printf("%s: %d string keys, min %q, max %q, avg len %.1f\n",
		in, len(keys), minK, maxK, float64(bytes)/float64(len(keys)))
	return nil
}

// tcpConfig assembles the transport config from the -listen/-peers
// flags, validating them against the processor count.
func tcpConfig(transport, listen, peers string, procs int) (pgxsort.TransportConfig, error) {
	var cfg pgxsort.TransportConfig
	if listen == "" && peers == "" {
		return cfg, nil
	}
	if transport != pgxsort.TransportTCP {
		return cfg, fmt.Errorf("-listen/-peers require -transport tcp")
	}
	cfg.Listen = tp.SplitAddrs(listen)
	cfg.Peers = tp.SplitAddrs(peers)
	if len(cfg.Listen) > 0 && len(cfg.Listen) != procs {
		return cfg, fmt.Errorf("-listen names %d addresses for %d processors", len(cfg.Listen), procs)
	}
	if len(cfg.Peers) > 0 && len(cfg.Peers) != procs {
		return cfg, fmt.Errorf("-peers names %d addresses for %d processors", len(cfg.Peers), procs)
	}
	return cfg, nil
}
