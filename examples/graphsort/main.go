// Graphsort reproduces the paper's Twitter scenario (§V, Figure 8): build
// a power-law graph, extract its degree sequence — a heavily duplicated
// key set — and sort it across a simulated cluster. The sorted result
// answers the graph questions the paper motivates: top-degree vertices
// (celebrities), degree ranks and range queries.
//
// Run: go run ./examples/graphsort
package main

import (
	"fmt"
	"log"

	"pgxsort"
	"pgxsort/internal/dist"
	"pgxsort/internal/graph"
)

func main() {
	// A 2^16-vertex, 1M-edge RMAT graph stands in for the Twitter graph.
	g := graph.TwitterLike(graph.RMATConfig{Scale: 16, EdgeFactor: 16, Seed: 7})
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices, g.NumEdges())

	// PGX.D statistics: partitioning quality and edge chunking.
	st := g.Partition(8)
	fmt.Printf("block partition on 8 machines: %d crossing edges, ghosts per machine %v\n",
		st.CrossingEdges, st.GhostNodes)

	degrees := g.Degrees()
	fmt.Printf("degree keys: duplicate ratio %.4f (power-law graphs share few distinct degrees)\n",
		dist.DuplicateRatio(degrees))

	// Sort the degree sequence; vertex ids ride along as origins.
	cluster, err := pgxsort.NewCluster[uint64](pgxsort.Options{Procs: 8, WorkersPerProc: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	res, err := cluster.SortSlice(degrees)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sorted %d degrees in %v, balance %.3f\n",
		res.Len(), res.Report.Total, res.Report.LoadImbalance())

	// Celebrities: each entry's origin index is its vertex id because the
	// input was one slice in vertex order (proc origin gives the shard).
	fmt.Println("top-5 degree vertices:")
	shard := func(proc, index int) int {
		// Reconstruct the global vertex id from (proc, local index).
		base := proc * len(degrees) / 8
		return base + index
	}
	for rank, e := range res.Top(5) {
		fmt.Printf("  #%d: vertex %d with out-degree %d\n",
			rank+1, shard(int(e.Proc), int(e.Index)), e.Key)
	}

	// Degree rank queries via distributed binary search.
	for _, d := range []uint64{0, 16, 100} {
		_, _, global, found := res.Search(d)
		fmt.Printf("first vertex with degree >= %d is at global rank %d (exact hit: %v)\n",
			d, global, found)
	}
	// Per-processor key ranges (paper Table III).
	fmt.Println("per-processor degree ranges:")
	for _, pr := range res.PartRanges() {
		fmt.Printf("  proc%d: %d entries, degrees %d..%d\n", pr.Proc, pr.Count, pr.Min, pr.Max)
	}
}
