// Multisort exercises two more of the paper's API claims (§III-IV): the
// library "is generic and works with any data type and is able to sort
// different data simultaneously". It sorts three uint64 datasets over one
// cluster through the SortMany scheduler, two of them admitted at a time,
// prints the per-dataset stage spans so their overlap is visible, then
// sorts int64 and float64 keys on typed clusters.
//
// Run: go run ./examples/multisort
package main

import (
	"context"
	"fmt"
	"log"

	"pgxsort"
	"pgxsort/internal/dist"
)

func main() {
	cluster, err := pgxsort.NewCluster[uint64](pgxsort.Options{Procs: 6, WorkersPerProc: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Three datasets with different distributions over the same cluster:
	// their messages interleave on the same simulated network, with at
	// most two in flight.
	kinds := []dist.Kind{dist.Uniform, dist.Normal, dist.Exponential}
	datasets := make([][][]uint64, len(kinds))
	for d, kind := range kinds {
		parts := make([][]uint64, 6)
		for i := range parts {
			parts[i] = dist.Gen{Kind: kind, Seed: uint64(100*d + i)}.Keys(150_000)
		}
		datasets[d] = parts
	}
	results, err := cluster.SortManyWith(context.Background(),
		pgxsort.SortManyOpts{MaxInflight: 2}, datasets...)
	if err != nil {
		log.Fatal(err)
	}
	for d, res := range results {
		if err := res.Verify(datasets[d]); err != nil {
			log.Fatalf("dataset %d: %v", d, err)
		}
		fmt.Printf("dataset %-12s: %7d keys sorted, balance %.3f, %d data bytes moved\n",
			kinds[d], res.Len(), res.Report.LoadImbalance(), res.Report.DataBytes)
	}
	// The stage spans are offsets from the SortMany call: overlap between
	// two datasets' spans is both running at once.
	for d, res := range results {
		tr := res.Report.Sched
		fmt.Printf("dataset %d admitted after %8v:", d, tr.AdmitWait.Round(10e3))
		for st := pgxsort.SchedStage(0); st < pgxsort.NumSchedStages; st++ {
			fmt.Printf("  %s [%v..%v]", st, tr.StageStart[st].Round(10e3), tr.StageEnd[st].Round(10e3))
		}
		fmt.Println()
	}

	// Generic keys: signed integers.
	ints, err := pgxsort.NewCluster[int64](pgxsort.Options{Procs: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer ints.Close()
	ri, err := ints.SortSlice([]int64{42, -7, 0, -100, 9000, -7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("int64 sorted:   %v\n", ri.Keys())

	// Generic keys: floats (IEEE order for non-negative values).
	floats, err := pgxsort.NewCluster[float64](pgxsort.Options{Procs: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer floats.Close()
	rf, err := floats.SortSlice([]float64{3.14, 0.5, 2.71, 0.001, 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("float64 sorted: %v\n", rf.Keys())
}
