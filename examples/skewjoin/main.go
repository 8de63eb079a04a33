// Command skewjoin demonstrates a distributed sort-merge join over two
// skewed key+payload datasets, built on the record-sorting engine.
//
// The classic problem: joining on a skewed key with a naive hash
// partitioner sends every occurrence of a heavy-hitter key to one node,
// which then holds most of the work. Here both sides are instead sorted by
// the paper's sample sort — whose splitters at exact ranks split heavy
// keys across processors — and then merge-joined in one pass over
// the two globally sorted record streams. Payloads (the non-key columns)
// ride the exchange with their keys, so the join never touches the
// original inputs again.
//
// The two sorts run concurrently on one cluster through the SortMany
// scheduler, so one side's exchange overlaps the other side's local sort.
//
// Output is verified byte-identical against a single-process hash join.
//
// Usage:
//
//	skewjoin [-n 200000] [-procs 8] [-workers 2] [-seed 42]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"pgxsort"
)

// skewLevel is one join workload: both sides draw keys right-skewed from
// a domain of the given width, so narrower domains mean heavier hitters
// (the modal key's share grows as the domain shrinks).
type skewLevel struct {
	name   string
	domain uint64
}

var skewLevels = []skewLevel{
	{"mild", 1 << 14},
	{"medium", 256},
	{"heavy", 16},
}

func main() {
	n := flag.Int("n", 200000, "rows per join side")
	procs := flag.Int("procs", 8, "simulated processors")
	workers := flag.Int("workers", 2, "workers per processor")
	seed := flag.Uint64("seed", 42, "generator seed")
	flag.Parse()

	for _, lvl := range skewLevels {
		res, err := runLevel(lvl, *n, *procs, *workers, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skewjoin:", err)
			os.Exit(1)
		}
		status := "MISMATCH"
		if res.identical {
			status = "byte-identical to hash-join oracle"
		}
		fmt.Printf("%-6s domain=%-6d rows=%d joined=%d sort=%v join=%v  %s\n",
			lvl.name, lvl.domain, *n, res.rows, res.sortTime, res.joinTime, status)
		if !res.identical {
			os.Exit(1)
		}
	}
}

type levelResult struct {
	rows      int
	sortTime  time.Duration
	joinTime  time.Duration
	identical bool
}

func runLevel(lvl skewLevel, n, procs, workers int, seed uint64) (levelResult, error) {
	// The classic skew-join shape: a skewed fact side (r) joined against a
	// dimension side (s) with a bounded number of rows per key — so the
	// heavy hitters stress the sort's load balance, not the output size.
	rParts := buildFactSide(n, procs, lvl.domain, seed)
	sParts := buildDimSide(procs, lvl.domain, seed+1)

	c, err := pgxsort.NewRecordCluster[uint64](pgxsort.Options{
		Procs: procs, WorkersPerProc: workers,
	})
	if err != nil {
		return levelResult{}, err
	}
	defer c.Close()

	t0 := time.Now()
	rRecs, sRecs, err := sortBothSides(c, rParts, sParts)
	if err != nil {
		return levelResult{}, err
	}
	sortTime := time.Since(t0)

	t1 := time.Now()
	joined := mergeJoin(rRecs, sRecs)
	joinTime := time.Since(t1)

	oracle := hashJoin(flatten(rParts), flatten(sParts))
	return levelResult{
		rows:      bytes.Count(joined, []byte{'\n'}),
		sortTime:  sortTime,
		joinTime:  joinTime,
		identical: bytes.Equal(joined, oracle),
	}, nil
}

// buildFactSide generates the skewed side: n right-skewed keys
// block-distributed across procs processors, each record tagged with a
// payload naming its side and global row id — the "rest of the row" a
// real join carries.
func buildFactSide(n, procs int, domain, seed uint64) [][]pgxsort.Record[uint64] {
	return toParts(skewedKeys(n, domain, seed), procs, 'r')
}

// buildDimSide generates the dimension side: every key in [0, domain)
// exactly twice (so equal-key blocks still cross-product), in a shuffled
// input order.
func buildDimSide(procs int, domain, seed uint64) [][]pgxsort.Record[uint64] {
	keys := make([]uint64, 2*domain)
	for i := range keys {
		keys[i] = uint64(i) / 2
	}
	rng := splitmix(seed)
	for i := len(keys) - 1; i > 0; i-- {
		j := int(rng() % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return toParts(keys, procs, 's')
}

// toParts block-distributes keys into per-processor record parts, each
// payload tagging the side and global row id.
func toParts(keys []uint64, procs int, tag byte) [][]pgxsort.Record[uint64] {
	n := len(keys)
	parts := make([][]pgxsort.Record[uint64], procs)
	for i := 0; i < procs; i++ {
		lo, hi := i*n/procs, (i+1)*n/procs
		part := make([]pgxsort.Record[uint64], hi-lo)
		for j := lo; j < hi; j++ {
			part[j-lo] = pgxsort.Record[uint64]{
				Key:     keys[j],
				Payload: []byte(fmt.Sprintf("%c%d", tag, j)),
			}
		}
		parts[i] = part
	}
	return parts
}

// splitmix returns a deterministic splitmix64 generator.
func splitmix(seed uint64) func() uint64 {
	state := seed*0x9e3779b97f4a7c15 + 1
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// skewedKeys draws n keys from a right-skewed distribution over [0,
// domain): a squared-uniform draw, so small keys dominate and the modal
// key's share grows as the domain narrows.
func skewedKeys(n int, domain, seed uint64) []uint64 {
	keys := make([]uint64, n)
	next := splitmix(seed)
	for i := range keys {
		u := float64(next()>>11) / (1 << 53)
		keys[i] = uint64(u * u * float64(domain))
	}
	return keys
}

// sortBothSides sorts the two record datasets concurrently through the
// SortMany scheduler (one cluster, both sides in flight) and returns each
// side's globally sorted entry stream (key + payload + origin).
func sortBothSides(c *pgxsort.Cluster[uint64], r, s [][]pgxsort.Record[uint64]) (
	rEnts, sEnts []pgxsort.Entry[uint64], err error) {
	results, err := c.SortManyRecordsWith(context.Background(),
		pgxsort.SortManyOpts{MaxInflight: 2}, r, s)
	if err != nil {
		return nil, nil, err
	}
	return flattenEntries(results[0]), flattenEntries(results[1]), nil
}

func flattenEntries(res *pgxsort.Result[uint64]) []pgxsort.Entry[uint64] {
	out := make([]pgxsort.Entry[uint64], 0, res.Len())
	for _, p := range res.Parts {
		out = append(out, p...)
	}
	return out
}

// mergeJoin runs the single-pass merge join over two sorted entry
// streams, emitting the cross product of every equal-key block. The sort
// is stable: equal keys arrive in origin order — (processor, index),
// which under block distribution is input order — so the row stream is
// deterministic.
func mergeJoin(r, s []pgxsort.Entry[uint64]) []byte {
	var out bytes.Buffer
	i, j := 0, 0
	for i < len(r) && j < len(s) {
		switch {
		case r[i].Key < s[j].Key:
			i++
		case s[j].Key < r[i].Key:
			j++
		default:
			k := r[i].Key
			i2 := i
			for i2 < len(r) && r[i2].Key == k {
				i2++
			}
			j2 := j
			for j2 < len(s) && s[j2].Key == k {
				j2++
			}
			for _, a := range r[i:i2] {
				for _, b := range s[j:j2] {
					writeRow(&out, k, a.Payload, b.Payload)
				}
			}
			i, j = i2, j2
		}
	}
	return out.Bytes()
}

// hashJoin is the single-process oracle: bucket both sides by key (input
// order preserved), then emit keys ascending with the same within-key
// ordering the merge join produces.
func hashJoin(r, s []pgxsort.Record[uint64]) []byte {
	rb := make(map[uint64][][]byte)
	for _, rec := range r {
		rb[rec.Key] = append(rb[rec.Key], rec.Payload)
	}
	sb := make(map[uint64][][]byte)
	for _, rec := range s {
		sb[rec.Key] = append(sb[rec.Key], rec.Payload)
	}
	keys := make([]uint64, 0, len(rb))
	for k := range rb {
		if _, ok := sb[k]; ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var out bytes.Buffer
	for _, k := range keys {
		for _, rp := range rb[k] {
			for _, sp := range sb[k] {
				writeRow(&out, k, rp, sp)
			}
		}
	}
	return out.Bytes()
}

func writeRow(out *bytes.Buffer, k uint64, rp, sp []byte) {
	fmt.Fprintf(out, "%d\t%s\t%s\n", k, rp, sp)
}

func flatten(parts [][]pgxsort.Record[uint64]) []pgxsort.Record[uint64] {
	var out []pgxsort.Record[uint64]
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
