package graph

import "math/bits"

// AugmentedView is a read-only view of the subgraph G[S] ∪ H where S is a
// node set and H is a set of extra undirected edges of G (by EdgeID). This is
// exactly the augmented subgraph whose diameter the shortcut dilation bound
// talks about: an arc (u, v) is usable if both endpoints are in S, or if its
// undirected edge is in H.
//
// Nodes of the view are: every node of S, plus every endpoint of an edge of
// H. Views share the parent graph's storage and are cheap to create relative
// to copying the subgraph.
type AugmentedView struct {
	g      *Graph
	inS    *Bitset // node membership in S
	inH    *Bitset // edge membership in H
	inView *Bitset // node membership in the view
	nodes  []NodeID
}

// NewAugmentedView builds the view of G[S] ∪ H. The caller retains ownership
// of the inputs; they are copied into internal bitsets.
func NewAugmentedView(g *Graph, s []NodeID, h []EdgeID) *AugmentedView {
	v := &AugmentedView{
		g:      g,
		inS:    NewBitset(g.NumNodes()),
		inH:    NewBitset(g.NumEdges()),
		inView: NewBitset(g.NumNodes()),
	}
	for _, u := range s {
		v.inS.Set(u)
		v.inView.Set(u)
	}
	for _, e := range h {
		v.inH.Set(e)
		a, b := g.EdgeEndpoints(e)
		v.inView.Set(a)
		v.inView.Set(b)
	}
	v.nodes = make([]NodeID, 0, v.inView.Count())
	v.inView.ForEach(func(i int32) { v.nodes = append(v.nodes, i) })
	return v
}

// Graph returns the parent graph.
func (v *AugmentedView) Graph() *Graph { return v.g }

// Nodes returns the nodes of the view (S plus endpoints of H) in increasing
// order. Callers must not modify the returned slice.
func (v *AugmentedView) Nodes() []NodeID { return v.nodes }

// HasNode reports whether u belongs to the view.
func (v *AugmentedView) HasNode(u NodeID) bool { return v.inView.Has(u) }

// UsableArc reports whether the directed arc (u, v) with edge e may be
// traversed inside the view.
func (v *AugmentedView) UsableArc(u, w NodeID, e EdgeID) bool {
	if v.inH.Has(e) {
		return true
	}
	return v.inS.Has(u) && v.inS.Has(w)
}

// Filter returns an ArcFilter admitting exactly the view's usable arcs.
func (v *AugmentedView) Filter() ArcFilter {
	return func(_ int32, u, w NodeID, e EdgeID) bool {
		return v.UsableArc(u, w, e)
	}
}

// BFS runs a breadth-first search inside the view from src over the whole
// parent graph. src must be a node of the view. DiameterAmong and
// EccentricityAmong run on a compact copy of the view instead; this is
// their whole-graph reference.
func (v *AugmentedView) BFS(src NodeID) *BFSResult {
	return FilteredBFS(v.g, src, -1, v.Filter())
}

// DiameterAmong returns the largest pairwise hop distance *between nodes of
// the set interest* inside the view, running one BFS per interest node.
// It returns -1 if some pair of interest nodes is disconnected in the view.
// This is the exact dilation of the augmented subgraph with respect to S.
// The BFSs run on a compact copy of the view, so the call costs
// O(|interest|·(|V_H|+|E_H|)) for the view's nodes V_H and usable arcs E_H,
// independent of the parent graph's size.
func (v *AugmentedView) DiameterAmong(interest []NodeID) int32 {
	c, ok := v.compact(interest)
	if !ok {
		return onlyNode(interest, interest[0])
	}
	var diam int32
	for _, s := range c.targets {
		ecc := c.eccentricity(s)
		if ecc < 0 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// EccentricityAmong returns the largest hop distance from src to any node of
// interest inside the view, or -1 if some interest node is unreachable.
// In a connected view, the true diameter among interest nodes lies in
// [ecc, 2·ecc].
func (v *AugmentedView) EccentricityAmong(src NodeID, interest []NodeID) int32 {
	c, ok := v.compact(interest)
	s := c.localID(src)
	switch {
	case s < 0:
		return onlyNode(interest, src)
	case !ok:
		return -1
	}
	return c.eccentricity(s)
}

// onlyNode is the distance answer when u is outside the view and so reaches
// only itself: 0 if every node of interest is u, -1 otherwise.
func onlyNode(interest []NodeID, u NodeID) int32 {
	for _, t := range interest {
		if t != u {
			return -1
		}
	}
	return 0
}

// compactView is an AugmentedView renumbered into local ids — node i is
// the view's i'th node in increasing order — with its usable arcs copied
// into local adjacency lists and one BFS buffer reused by every search. A
// node's arcs are copied the first time a search expands it, so a search
// that stops early copies only what it explored. It lives for one call.
type compactView struct {
	v       *AugmentedView
	rank    []int32 // rank[i]: view nodes in inView's words [0, i)
	arcLo   []int32 // local id -> start of its arcs in adj, -1 until copied
	arcHi   []int32 // local id -> end of its arcs in adj
	adj     []int32 // copied arcs as local target ids
	targets []int32 // the distinct interest nodes' local ids
	target  []bool  // local id -> is an interest node
	dist    []int32 // hop distance per local id; Unreached between searches
	queue   []int32
}

// compact sets up the compact copy of the view with interest as its BFS
// targets. ok is false if some interest node is not a node of the view.
func (v *AugmentedView) compact(interest []NodeID) (c *compactView, ok bool) {
	k := len(v.nodes)
	c = &compactView{
		v:      v,
		rank:   make([]int32, len(v.inView.words)),
		arcLo:  make([]int32, k),
		arcHi:  make([]int32, k),
		target: make([]bool, k),
		dist:   make([]int32, k),
		queue:  make([]int32, 0, k),
	}
	var r int32
	for i, w := range v.inView.words {
		c.rank[i] = r
		r += int32(bits.OnesCount64(w))
	}
	for i := range c.dist {
		c.arcLo[i] = -1
		c.dist[i] = Unreached
	}
	ok = true
	for _, u := range interest {
		switch t := c.localID(u); {
		case t < 0:
			ok = false
		case !c.target[t]:
			c.target[t] = true
			c.targets = append(c.targets, t)
		}
	}
	return c, ok
}

// arcs returns the local targets of local id i's usable arcs, copying them
// from the parent graph on first use.
func (c *compactView) arcs(i int32) []int32 {
	if c.arcLo[i] < 0 {
		v := c.v
		u := v.nodes[i]
		uInS := v.inS.Has(u)
		c.arcLo[i] = int32(len(c.adj))
		lo, hi := v.g.ArcRange(u)
		for a := lo; a < hi; a++ {
			// A usable arc's target is in S or an endpoint of H, so it is
			// a node of the view and has a local id.
			if w := v.g.ArcTarget(a); v.inH.Has(v.g.ArcEdge(a)) || uInS && v.inS.Has(w) {
				c.adj = append(c.adj, c.localID(w))
			}
		}
		c.arcHi[i] = int32(len(c.adj))
	}
	return c.adj[c.arcLo[i]:c.arcHi[i]]
}

// localID returns u's local id — its rank among the view's nodes — or -1
// if u is not a node of the view.
func (c *compactView) localID(u NodeID) int32 {
	inView := c.v.inView
	if !inView.Has(u) {
		return -1
	}
	w := inView.words[u>>6]
	return c.rank[u>>6] + int32(bits.OnesCount64(w&(1<<(uint(u)&63)-1)))
}

// eccentricity returns the largest hop distance from local id src to a
// target, or -1 if some target is unreachable. The BFS stops once it has
// found every target: it finds them in nondecreasing distance order, so
// the last one found is the farthest.
func (c *compactView) eccentricity(src int32) int32 {
	left := len(c.targets)
	if c.target[src] {
		left--
	}
	var ecc int32
	c.dist[src] = 0
	c.queue = append(c.queue[:0], src)
search:
	for head := 0; head < len(c.queue) && left > 0; head++ {
		u := c.queue[head]
		du := c.dist[u] + 1
		for _, w := range c.arcs(u) {
			if c.dist[w] != Unreached {
				continue
			}
			c.dist[w] = du
			c.queue = append(c.queue, w)
			if c.target[w] {
				ecc = du
				if left--; left == 0 {
					break search
				}
			}
		}
	}
	for _, u := range c.queue {
		c.dist[u] = Unreached
	}
	if left > 0 {
		return -1
	}
	return ecc
}
