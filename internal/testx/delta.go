package testx

import "repro/internal/graph"

// DisconnectingDelta returns a delta that disconnects one part of a
// partition of g, and that part's index. It picks the node of a part of at
// least two nodes with the fewest edges inside its part — usually one, the
// part's only internal link to that node — and deletes those edges. ok is
// false if every part is a single node.
func DisconnectingDelta(g *graph.Graph, parts [][]graph.NodeID) (d graph.Delta, part int, ok bool) {
	partOf := make([]int, g.NumNodes())
	for i := range partOf {
		partOf[i] = -1
	}
	for i, nodes := range parts {
		for _, v := range nodes {
			partOf[v] = i
		}
	}
	best, bestLinks := graph.NodeID(-1), 0
	for i, nodes := range parts {
		if len(nodes) < 2 {
			continue
		}
		for _, v := range nodes {
			links := 0
			for _, u := range g.Neighbors(v) {
				if partOf[u] == i {
					links++
				}
			}
			if best < 0 || links < bestLinks {
				best, bestLinks, part = v, links, i
			}
		}
	}
	if best < 0 {
		return d, -1, false
	}
	for _, u := range g.Neighbors(best) {
		if partOf[u] == part {
			d.Delete = append(d.Delete, [2]graph.NodeID{best, u})
		}
	}
	return d, part, true
}
