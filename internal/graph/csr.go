// Package graph provides the graph substrate the paper's Twitter
// experiments run on: a CSR (Compressed Sparse Row) in-memory graph —
// the structure PGX.D's data manager stores graphs in (§III) — an RMAT
// power-law generator standing in for the proprietary 25GB Twitter
// dataset, degree extraction (the sort keys of Figure 8/Table III), and
// the partitioning statistics (crossing edges, ghost nodes, edge chunks)
// PGX.D's loader optimizes.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a directed src -> dst pair.
type Edge struct {
	Src, Dst uint32
}

// CSR is a compressed sparse row adjacency structure: the neighbors of
// vertex v are Adj[Row[v]:Row[v+1]].
type CSR struct {
	NumVertices int
	Row         []int64  // len NumVertices+1
	Adj         []uint32 // len NumEdges
}

// NumEdges returns the edge count.
func (g *CSR) NumEdges() int { return len(g.Adj) }

// OutDegree returns vertex v's out-degree.
func (g *CSR) OutDegree(v int) int { return int(g.Row[v+1] - g.Row[v]) }

// Neighbors returns vertex v's adjacency slice (shared, do not modify).
func (g *CSR) Neighbors(v int) []uint32 { return g.Adj[g.Row[v]:g.Row[v+1]] }

// FromEdges builds a CSR from an edge list with a counting pass followed
// by a placement pass (the standard two-pass CSR build).
func FromEdges(numVertices int, edges []Edge) (*CSR, error) {
	g := &CSR{
		NumVertices: numVertices,
		Row:         make([]int64, numVertices+1),
		Adj:         make([]uint32, len(edges)),
	}
	for _, e := range edges {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside vertex range %d", e.Src, e.Dst, numVertices)
		}
		g.Row[e.Src+1]++
	}
	for v := 0; v < numVertices; v++ {
		g.Row[v+1] += g.Row[v]
	}
	cursor := make([]int64, numVertices)
	copy(cursor, g.Row[:numVertices])
	for _, e := range edges {
		g.Adj[cursor[e.Src]] = e.Dst
		cursor[e.Src]++
	}
	return g, nil
}

// Degrees returns all out-degrees as uint64 sort keys, one pass over the
// row offsets. This is the dataset sorted in the paper's Twitter
// experiments: degree data is heavily duplicated (most vertices in a
// power-law graph share low degrees), which is exactly the case the
// investigator targets.
func (g *CSR) Degrees() []uint64 {
	out := make([]uint64, g.NumVertices)
	for v := range out {
		out[v] = uint64(g.Row[v+1] - g.Row[v])
	}
	return out
}

// DegreeHistogram returns sorted (degree, count) pairs.
func (g *CSR) DegreeHistogram() []DegreeCount {
	counts := map[int]int{}
	for v := 0; v < g.NumVertices; v++ {
		counts[g.OutDegree(v)]++
	}
	out := make([]DegreeCount, 0, len(counts))
	for d, c := range counts {
		out = append(out, DegreeCount{Degree: d, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Degree < out[j].Degree })
	return out
}

// DegreeCount is one histogram bucket.
type DegreeCount struct {
	Degree int
	Count  int
}

// PartitionStats describes a block partitioning of the vertex set across
// p machines, with the metrics PGX.D's loader optimizes: edges whose
// endpoints live on different machines (crossing edges) and the distinct
// remote vertices each machine must mirror (ghost nodes, §III).
type PartitionStats struct {
	Procs         int
	VerticesPer   []int
	EdgesPer      []int
	CrossingEdges int
	GhostNodes    []int
}

// Partition block-partitions vertices across p machines and reports the
// statistics.
func (g *CSR) Partition(p int) PartitionStats {
	if p < 1 {
		p = 1
	}
	st := PartitionStats{
		Procs:       p,
		VerticesPer: make([]int, p),
		EdgesPer:    make([]int, p),
		GhostNodes:  make([]int, p),
	}
	owner := func(v int) int { return v * p / g.NumVertices }
	if g.NumVertices == 0 {
		return st
	}
	for m := 0; m < p; m++ {
		lo := m * g.NumVertices / p
		hi := (m + 1) * g.NumVertices / p
		st.VerticesPer[m] = hi - lo
		ghosts := map[uint32]struct{}{}
		for v := lo; v < hi; v++ {
			st.EdgesPer[m] += g.OutDegree(v)
			for _, w := range g.Neighbors(v) {
				if owner(int(w)) != m {
					st.CrossingEdges++
					ghosts[w] = struct{}{}
				}
			}
		}
		st.GhostNodes[m] = len(ghosts)
	}
	return st
}

// EdgeChunks splits the vertex range into chunks of roughly equal *edge*
// counts (PGX.D's edge chunking strategy, §III): a machine's worker tasks
// each get a vertex interval with about the same number of edges, which
// balances per-task work on skewed-degree graphs where equal vertex
// intervals would not. It returns chunk boundaries (len chunks+1).
func (g *CSR) EdgeChunks(chunks int) []int {
	if chunks < 1 {
		chunks = 1
	}
	bounds := make([]int, chunks+1)
	total := int64(len(g.Adj))
	v := 0
	for c := 1; c < chunks; c++ {
		target := total * int64(c) / int64(chunks)
		for v < g.NumVertices && g.Row[v+1] < target {
			v++
		}
		bounds[c] = v
	}
	bounds[chunks] = g.NumVertices
	return bounds
}
