package graph

import (
	"testing"

	"pgxsort/internal/dist"
)

func smallGraph(t *testing.T) *CSR {
	t.Helper()
	// 0 -> 1,2 ; 1 -> 2 ; 2 -> (none) ; 3 -> 0
	g, err := FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdges(t *testing.T) {
	g := smallGraph(t)
	if g.NumVertices != 4 || g.NumEdges() != 4 {
		t.Fatalf("size = %d vertices / %d edges", g.NumVertices, g.NumEdges())
	}
	wantDeg := []int{2, 1, 0, 1}
	for v, want := range wantDeg {
		if got := g.OutDegree(v); got != want {
			t.Errorf("deg(%d) = %d, want %d", v, got, want)
		}
	}
	n0 := g.Neighbors(0)
	if len(n0) != 2 || n0[0] != 1 || n0[1] != 2 {
		t.Errorf("neighbors(0) = %v", n0)
	}
	if len(g.Neighbors(2)) != 0 {
		t.Errorf("neighbors(2) = %v", g.Neighbors(2))
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestDegrees(t *testing.T) {
	degs := smallGraph(t).Degrees()
	want := []uint64{2, 1, 0, 1}
	for v, w := range want {
		if degs[v] != w {
			t.Errorf("degrees = %v, want %v", degs, want)
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := smallGraph(t)
	h := g.DegreeHistogram()
	// degrees: 2,1,0,1 -> (0:1) (1:2) (2:1)
	want := []DegreeCount{{0, 1}, {1, 2}, {2, 1}}
	if len(h) != len(want) {
		t.Fatalf("histogram = %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

func TestRMATDeterministicAndSized(t *testing.T) {
	cfg := RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 42}
	a := RMAT(cfg)
	b := RMAT(cfg)
	if len(a) != cfg.NumEdges() || len(a) != 8*1024 {
		t.Fatalf("edge count = %d, want %d", len(a), cfg.NumEdges())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RMAT not deterministic at %d", i)
		}
	}
	c := RMAT(RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 43})
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("different seeds produce %d/%d identical edges", same, len(a))
	}
	for _, e := range a {
		if int(e.Src) >= cfg.NumVertices() || int(e.Dst) >= cfg.NumVertices() {
			t.Fatalf("edge %v outside vertex range", e)
		}
	}
}

func TestTwitterLikeIsHeavyTailed(t *testing.T) {
	g := TwitterLike(RMATConfig{Scale: 14, EdgeFactor: 16, Seed: 7})
	degs := g.Degrees()
	// Heavy tail: the max degree dwarfs the mean (16).
	var max uint64
	for _, d := range degs {
		if d > max {
			max = d
		}
	}
	if max < 200 {
		t.Errorf("max degree %d too small for a power-law graph", max)
	}
	// Duplicate-heavy keys: distinct degree values are a tiny fraction of
	// vertices — the Figure 8 sorting workload's defining property.
	if r := dist.DuplicateRatio(degs); r < 0.9 {
		t.Errorf("degree duplicate ratio %.3f, want >= 0.9", r)
	}
}

func TestPartitionStats(t *testing.T) {
	g := smallGraph(t)
	st := g.Partition(2)
	if st.Procs != 2 {
		t.Fatalf("procs = %d", st.Procs)
	}
	if st.VerticesPer[0]+st.VerticesPer[1] != 4 {
		t.Errorf("vertices per machine = %v", st.VerticesPer)
	}
	if st.EdgesPer[0]+st.EdgesPer[1] != 4 {
		t.Errorf("edges per machine = %v", st.EdgesPer)
	}
	// Machine 0 owns {0,1}, machine 1 owns {2,3}.
	// Crossing: 0->2 (cross), 1->2 (cross), 3->0 (cross) = 3.
	if st.CrossingEdges != 3 {
		t.Errorf("crossing edges = %d, want 3", st.CrossingEdges)
	}
	// Ghosts on machine 0: {2}; on machine 1: {0}.
	if st.GhostNodes[0] != 1 || st.GhostNodes[1] != 1 {
		t.Errorf("ghost nodes = %v, want [1 1]", st.GhostNodes)
	}
}

func TestEdgeChunksBalanceEdges(t *testing.T) {
	g := TwitterLike(RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 3})
	const chunks = 8
	bounds := g.EdgeChunks(chunks)
	if len(bounds) != chunks+1 {
		t.Fatalf("bounds = %v", bounds)
	}
	if bounds[0] != 0 || bounds[chunks] != g.NumVertices {
		t.Fatalf("bounds do not cover the vertex range: %v", bounds)
	}
	total := g.NumEdges()
	ideal := total / chunks
	for c := 0; c < chunks; c++ {
		edges := int(g.Row[bounds[c+1]] - g.Row[bounds[c]])
		// Chunks may exceed ideal by at most one vertex's degree; allow a
		// generous bound for the single max-degree celebrity vertex.
		if edges > 3*ideal && edges > 1000 {
			t.Errorf("chunk %d has %d edges (ideal %d)", c, edges, ideal)
		}
	}
	// Monotone bounds.
	for c := 1; c <= chunks; c++ {
		if bounds[c] < bounds[c-1] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
	}
	// Contrast: equal-vertex chunks would put wildly uneven edge counts
	// in each chunk on a power-law graph; verify edge chunking is
	// strictly better than the naive split for the worst chunk.
	worstEdge, worstVertex := 0, 0
	for c := 0; c < chunks; c++ {
		e := int(g.Row[bounds[c+1]] - g.Row[bounds[c]])
		if e > worstEdge {
			worstEdge = e
		}
		vlo := c * g.NumVertices / chunks
		vhi := (c + 1) * g.NumVertices / chunks
		e = int(g.Row[vhi] - g.Row[vlo])
		if e > worstVertex {
			worstVertex = e
		}
	}
	if worstEdge > worstVertex {
		t.Errorf("edge chunking (worst %d) no better than vertex chunking (worst %d)",
			worstEdge, worstVertex)
	}
}

func TestEdgeChunksDegenerate(t *testing.T) {
	g := smallGraph(t)
	bounds := g.EdgeChunks(0)
	if len(bounds) != 2 || bounds[1] != 4 {
		t.Fatalf("bounds = %v", bounds)
	}
	empty, err := FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b2 := empty.EdgeChunks(4)
	if b2[4] != 1 {
		t.Fatalf("empty-graph bounds = %v", b2)
	}
}

func TestPartitionSingleMachine(t *testing.T) {
	g := smallGraph(t)
	st := g.Partition(0) // clamps to 1
	if st.CrossingEdges != 0 {
		t.Errorf("single machine has %d crossing edges", st.CrossingEdges)
	}
	if st.GhostNodes[0] != 0 {
		t.Errorf("single machine has ghosts: %v", st.GhostNodes)
	}
}
