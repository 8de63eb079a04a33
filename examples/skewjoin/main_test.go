package main

import (
	"bytes"
	"fmt"
	"testing"

	"pgxsort"
)

// The acceptance criterion: at every skew level, the distributed
// sort-merge join at p=8 produces byte-identical output to the
// single-process hash-join oracle.
func TestSkewJoinMatchesOracleAllLevels(t *testing.T) {
	for _, lvl := range skewLevels {
		t.Run(lvl.name, func(t *testing.T) {
			res, err := runLevel(lvl, 40000, 8, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !res.identical {
				t.Fatal("join output differs from the hash-join oracle")
			}
			// Every fact row matches exactly two dimension rows.
			if res.rows != 2*40000 {
				t.Fatalf("joined %d rows, want %d", res.rows, 2*40000)
			}
		})
	}
}

// Two consecutive runs must produce the same bytes (determinism of the
// record path end to end, including equal-key handling).
func TestSkewJoinDeterministic(t *testing.T) {
	lvl := skewLevels[2] // heavy
	out := make([][]byte, 2)
	for i := range out {
		rParts := buildFactSide(20000, 8, lvl.domain, 3)
		sParts := buildDimSide(8, lvl.domain, 4)
		c, err := pgxsort.NewRecordCluster[uint64](pgxsort.Options{Procs: 8, WorkersPerProc: 2})
		if err != nil {
			t.Fatal(err)
		}
		r, s, err := sortBothSides(c, rParts, sParts)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = mergeJoin(r, s)
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatal("two identical runs produced different join bytes")
	}
}

// Splitters at exact ranks (the investigator, on by default) are what
// keep the heavy-hitter side balanced: with them disabled, the modal
// key's whole block lands on one processor.
func TestInvestigatorBalancesHeavyHitters(t *testing.T) {
	parts := buildFactSide(40000, 8, 16, 11)
	imbalance := func(disable bool) float64 {
		c, err := pgxsort.NewRecordCluster[uint64](pgxsort.Options{
			Procs: 8, WorkersPerProc: 2, DisableInvestigator: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := c.SortRecords(parts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.LoadImbalance()
	}
	on, off := imbalance(false), imbalance(true)
	t.Logf("imbalance: investigator on %.3f, off %.3f", on, off)
	if off <= 1.5 {
		t.Fatalf("heavy-hitter dataset not skewed enough: off-imbalance %.3f", off)
	}
	if on >= off {
		t.Fatalf("investigator did not improve balance: on %.3f >= off %.3f", on, off)
	}
}

// mergeJoin against a hand-checked case, exercising cross products and
// non-matching keys on both sides.
func TestMergeJoinSmall(t *testing.T) {
	mk := func(side byte, keys ...uint64) []pgxsort.Record[uint64] {
		recs := make([]pgxsort.Record[uint64], len(keys))
		for i, k := range keys {
			recs[i] = pgxsort.Record[uint64]{Key: k, Payload: []byte(fmt.Sprintf("%c%d", side, i))}
		}
		return recs
	}
	r := mk('r', 5, 1, 1, 9) // input order; r1,r2 share key 1
	s := mk('s', 1, 7, 1, 5) // s0,s2 share key 1

	c, err := pgxsort.NewRecordCluster[uint64](pgxsort.Options{Procs: 2, WorkersPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rE, sE, err := sortBothSides(c,
		[][]pgxsort.Record[uint64]{r[:2], r[2:]},
		[][]pgxsort.Record[uint64]{s[:2], s[2:]})
	if err != nil {
		t.Fatal(err)
	}
	got := string(mergeJoin(rE, sE))
	want := "1\tr1\ts0\n1\tr1\ts2\n1\tr2\ts0\n1\tr2\ts2\n5\tr0\ts3\n"
	if got != want {
		t.Fatalf("mergeJoin:\ngot  %q\nwant %q", got, want)
	}
	if oracle := string(hashJoin(r, s)); got != oracle {
		t.Fatalf("mergeJoin disagrees with oracle:\ngot    %q\noracle %q", got, oracle)
	}
}
