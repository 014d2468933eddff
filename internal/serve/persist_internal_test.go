package serve

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/sssp"
)

// TestVerifyTreeForestCheck pins the load-time tree check: the persisted
// edge list must be a forest of distinct edges, and the tree index must
// list exactly its edge ends. Forests (partial or empty) pass; a cycle, a
// duplicate edge, or an index that lists one edge end twice is corrupt.
func TestVerifyTreeForestCheck(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	w := graph.Weights{1, 2, 3, 4}
	index := func(tree []graph.EdgeID) *sssp.TreeIndex {
		ti, err := sssp.NewTreeIndex(g, w, tree)
		if err != nil {
			t.Fatal(err)
		}
		return ti
	}
	for _, tc := range []struct {
		name string
		tree []graph.EdgeID
		ok   bool
	}{
		{"spanning tree", []graph.EdgeID{0, 1, 2}, true},
		{"partial forest", []graph.EdgeID{0, 2}, true},
		{"empty", nil, true},
		{"cycle", []graph.EdgeID{0, 1, 2, 3}, false},
		{"duplicate edge", []graph.EdgeID{0, 0}, false},
	} {
		err := verifyTree(g, w, tc.tree, index(tc.tree))
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && reproerr.KindOf(err) != reproerr.KindCorrupt {
			t.Errorf("%s: want KindCorrupt, got %v", tc.name, err)
		}
	}

	// Path 0-1-2-3: node 1 lists its edge to 0 twice (weights included)
	// and drops the one to 2 — degrees, membership and weights all still
	// check out arc by arc.
	tree := []graph.EdgeID{0, 1, 2}
	off, to, wt := index(tree).Raw()
	badTo := append([]graph.NodeID(nil), to...)
	badWt := append([]float64(nil), wt...)
	for a := off[1]; a < off[2]; a++ {
		badTo[a], badWt[a] = 0, w[0]
	}
	ti, err := sssp.RawTreeIndex(off, badTo, badWt)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyTree(g, w, tree, ti); reproerr.KindOf(err) != reproerr.KindCorrupt {
		t.Fatalf("index listing an edge end twice: want KindCorrupt, got %v", err)
	}
}
