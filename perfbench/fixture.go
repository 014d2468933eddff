package main

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/twoecss"
)

// fixture is one workload's generated input: the graph, its weights, the
// Voronoi parts and the build diameter (0 = estimated by NewSnapshot).
type fixture struct {
	g        *graph.Graph
	w        graph.Weights
	parts    [][]graph.NodeID
	diameter int
	// bridgeFree marks 2-edge-connected fixtures, the only ones twoecss
	// queries can be answered on.
	bridgeFree bool
}

const numParts = 64

// clusterChainFixture is the E14/E16 generator: ClusterChain with diameter
// 6, uniform weights, 64 Voronoi parts.
func clusterChainFixture(n int, rng *rand.Rand) (*fixture, error) {
	g, err := gen.ClusterChain(n, 6, rng)
	if err != nil {
		return nil, err
	}
	w := graph.NewUniformWeights(g.NumEdges(), rng)
	parts, err := gen.VoronoiParts(g, numParts, rng)
	if err != nil {
		return nil, err
	}
	return &fixture{g: g, w: w, parts: parts, diameter: 6}, nil
}

// bridgeFreeERFixture is E17's idiom: Erdős–Rényi G(n, p) redrawn until
// connected and bridge-free (so every query kind, twoecss included, has an
// answer), uniform weights, 64 Voronoi parts.
func bridgeFreeERFixture(n int, p float64, rng *rand.Rand) (*fixture, error) {
	for tries := 0; ; tries++ {
		if tries == 100 {
			return nil, fmt.Errorf("no connected bridge-free G(%d, %v) in %d draws", n, p, tries)
		}
		g := gen.ErdosRenyi(n, p, rng)
		if !twoecss.IsTwoEdgeConnected(g, allEdges(g)) {
			continue
		}
		w := graph.NewUniformWeights(g.NumEdges(), rng)
		parts, err := gen.VoronoiParts(g, numParts, rng)
		if err != nil {
			return nil, err
		}
		return &fixture{g: g, w: w, parts: parts, bridgeFree: true}, nil
	}
}

// buildDiameter is the diameter NewSnapshot builds shortcuts for: the
// fixture's, or the lower bound it estimates when the fixture gives none.
func (fx *fixture) buildDiameter() int {
	if fx.diameter > 0 {
		return fx.diameter
	}
	lo, _ := graph.DiameterBounds(fx.g)
	return max(int(lo), 1)
}

func allEdges(g *graph.Graph) []graph.EdgeID {
	es := make([]graph.EdgeID, g.NumEdges())
	for i := range es {
		es[i] = graph.EdgeID(i)
	}
	return es
}

// deltaChain draws k deltas against g. Delta i inserts `per` fresh edges
// (absent from g and from every earlier insertion) and deletes the edges
// delta i−2 inserted. Only edges the chain itself inserted are ever
// deleted, so every graph along the chain contains g and every part of a
// partition of g stays connected; from delta 2 on the deletion recheck
// runs.
func deltaChain(g *graph.Graph, k, per int, rng *rand.Rand) ([]graph.Delta, error) {
	n := g.NumNodes()
	used := make(map[[2]graph.NodeID]bool)
	inserted := make([][]graph.DeltaEdge, k)
	out := make([]graph.Delta, k)
	for i := 0; i < k; i++ {
		for tries := 0; len(inserted[i]) < per; tries++ {
			if tries > 1000*per {
				return nil, fmt.Errorf("delta %d: no free edge slot in %d tries", i, tries)
			}
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if used[[2]graph.NodeID{u, v}] {
				continue
			}
			used[[2]graph.NodeID{u, v}] = true
			inserted[i] = append(inserted[i], graph.DeltaEdge{U: u, V: v, W: 1 - rng.Float64()})
		}
		out[i].Insert = inserted[i]
		if i >= 2 {
			for _, e := range inserted[i-2] {
				out[i].Delete = append(out[i].Delete, [2]graph.NodeID{e.U, e.V})
			}
		}
	}
	return out, nil
}
