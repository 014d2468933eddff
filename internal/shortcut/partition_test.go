package shortcut

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPartitionConnectivityMatchesReference pins NewPartition's and
// Rebind's connectivity check to graph.IsNodeSetConnected, the per-part
// reference, on random sparse graphs, random partitions and random deletion
// deltas: each accepts exactly when every part it checks is connected, and
// otherwise names the first disconnected part.
func TestPartitionConnectivityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40) + 2
		g := gen.ErdosRenyi(n, 1.5/float64(n), rng)

		// Random partition: every node joins one of k parts or none, so
		// parts are often disconnected and often connected only through
		// nodes of other parts or of no part.
		k := rng.Intn(5) + 1
		lists := make([][]graph.NodeID, k)
		for _, v := range rng.Perm(n) {
			if i := rng.Intn(k + 1); i < k {
				lists[i] = append(lists[i], graph.NodeID(v))
			}
		}
		var parts [][]graph.NodeID
		for _, l := range lists {
			if len(l) > 0 {
				parts = append(parts, l)
			}
		}
		_, err := NewPartition(g, parts)
		if want := firstDisconnected(g, parts, nil); want < 0 {
			if err != nil {
				t.Fatalf("trial %d: connected parts %v rejected: %v", trial, parts, err)
			}
		} else if msg := fmt.Sprintf("shortcut.NewPartition: part %d is not connected", want); err == nil || err.Error() != msg {
			t.Fatalf("trial %d: parts %v: error %v, want %q", trial, parts, err, msg)
		}

		// Rebind after deleting random edges of a valid (Voronoi) partition.
		vparts, err := gen.VoronoiParts(g, rng.Intn(n)+1, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPartition(g, vparts)
		if err != nil {
			t.Fatalf("trial %d: Voronoi partition rejected: %v", trial, err)
		}
		var d graph.Delta
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Intn(4) == 0 {
				u, v := g.EdgeEndpoints(graph.EdgeID(e))
				d.Delete = append(d.Delete, [2]graph.NodeID{u, v})
			}
		}
		if d.Size() == 0 {
			continue
		}
		g2, _, _, err := graph.ApplyDelta(g, nil, d)
		if err != nil {
			t.Fatal(err)
		}
		recheck := rng.Perm(p.NumParts())[:rng.Intn(p.NumParts())+1]
		_, err = p.Rebind(g2, recheck)
		if want := firstDisconnected(g2, vparts, recheck); want < 0 {
			if err != nil {
				t.Fatalf("trial %d: Rebind(%v) rejected connected parts: %v", trial, recheck, err)
			}
		} else if msg := fmt.Sprintf("shortcut.Rebind: part %d disconnected by delta", want); err == nil || err.Error() != msg {
			t.Fatalf("trial %d: Rebind(%v): error %v, want %q", trial, recheck, err, msg)
		}
	}
}

// firstDisconnected returns the first part, in the order of which (all
// parts in index order when which is nil), that graph.IsNodeSetConnected
// finds disconnected in g, or -1.
func firstDisconnected(g *graph.Graph, parts [][]graph.NodeID, which []int) int {
	if which == nil {
		for i := range parts {
			which = append(which, i)
		}
	}
	for _, i := range which {
		if !graph.IsNodeSetConnected(g, parts[i]) {
			return i
		}
	}
	return -1
}
