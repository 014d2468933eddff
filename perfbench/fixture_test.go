package main

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortcut"
)

func TestDeltaChainKeepsPartsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := gen.ClusterChain(600, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	const k, per = 16, 4
	deltas, err := deltaChain(g, k, per, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != k {
		t.Fatalf("got %d deltas, want %d", len(deltas), k)
	}
	cur, cw := g, w
	for i, d := range deltas {
		if len(d.Insert) != per {
			t.Errorf("delta %d inserts %d edges, want %d", i, len(d.Insert), per)
		}
		wantDel := 0
		if i >= 2 {
			wantDel = per
			for j, e := range deltas[i-2].Insert {
				if d.Delete[j] != [2]graph.NodeID{e.U, e.V} {
					t.Errorf("delta %d deletes %v, want delta %d's insertion %v", i, d.Delete[j], i-2, e)
				}
			}
		}
		if len(d.Delete) != wantDel {
			t.Errorf("delta %d deletes %d edges, want %d", i, len(d.Delete), wantDel)
		}
		cur, cw, _, err = graph.ApplyDelta(cur, cw, d)
		if err != nil {
			t.Fatalf("delta %d does not apply: %v", i, err)
		}
		for _, e := range d.Insert {
			if g.HasEdge(e.U, e.V) {
				t.Errorf("delta %d re-inserts original edge %v", i, e)
			}
		}
		if _, err := shortcut.NewPartition(cur, parts); err != nil {
			t.Fatalf("after delta %d a part is disconnected: %v", i, err)
		}
		for e := 0; e < g.NumEdges(); e++ {
			u, v := g.EdgeEndpoints(graph.EdgeID(e))
			if !cur.HasEdge(u, v) {
				t.Fatalf("after delta %d original edge %d-%d is gone", i, u, v)
			}
		}
	}
}

func TestDeltaChainIsSeeded(t *testing.T) {
	g, err := gen.ClusterChain(200, 6, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := deltaChain(g, 5, 2, rand.New(rand.NewSource(9)))
	b, _ := deltaChain(g, 5, 2, rand.New(rand.NewSource(9)))
	for i := range a {
		for j := range a[i].Insert {
			if a[i].Insert[j] != b[i].Insert[j] {
				t.Fatalf("same seed, different delta %d: %v vs %v", i, a[i].Insert[j], b[i].Insert[j])
			}
		}
	}
}
