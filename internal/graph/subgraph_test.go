package graph

import (
	"math/rand"
	"testing"
)

func TestAugmentedViewInducedOnly(t *testing.T) {
	// Path 0-1-2-3-4-5; S = {1,2,3}; no extra edges. The view is the induced
	// path 1-2-3.
	g := mustBuild(t, 6, pathEdges(6))
	v := NewAugmentedView(g, []NodeID{1, 2, 3}, nil)
	if got := v.DiameterAmong([]NodeID{1, 2, 3}); got != 2 {
		t.Errorf("diameter = %d, want 2", got)
	}
	res := v.BFS(1)
	if res.Dist[0] != Unreached || res.Dist[4] != Unreached {
		t.Error("view leaks outside S")
	}
}

func TestAugmentedViewShortcutEdge(t *testing.T) {
	// Path 0..7 plus chord {0,7}. S = all nodes of the path; H = {chord}.
	b := NewBuilder(8)
	for _, e := range pathEdges(8) {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(0, 7); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	chord, _ := g.FindEdge(0, 7)
	s := make([]NodeID, 8)
	for i := range s {
		s[i] = NodeID(i)
	}
	// Without the chord in H but with all of S: the chord is still usable
	// because both endpoints are in S (it's part of G[S]).
	v := NewAugmentedView(g, s, nil)
	if got := v.DiameterAmong(s); got != 4 {
		t.Errorf("cycle view diameter = %d, want 4", got)
	}
	// Now S is only the path interior endpoints {0,7}: disconnected without H.
	v2 := NewAugmentedView(g, []NodeID{0, 7}, nil)
	if got := v2.DiameterAmong([]NodeID{0, 7}); got != 1 {
		// {0,7} are adjacent via the chord inside G[S].
		t.Errorf("induced {0,7} diameter = %d, want 1", got)
	}
	// S = {0, 3}: not adjacent, disconnected in G[S]; adding path edges via H
	// reconnects them.
	v3 := NewAugmentedView(g, []NodeID{0, 3}, nil)
	if got := v3.DiameterAmong([]NodeID{0, 3}); got != -1 {
		t.Errorf("disconnected view diameter = %d, want -1", got)
	}
	e01, _ := g.FindEdge(0, 1)
	e12, _ := g.FindEdge(1, 2)
	e23, _ := g.FindEdge(2, 3)
	v4 := NewAugmentedView(g, []NodeID{0, 3}, []EdgeID{e01, e12, e23})
	if got := v4.DiameterAmong([]NodeID{0, 3}); got != 3 {
		t.Errorf("H-connected view diameter = %d, want 3", got)
	}
	_ = chord
}

func TestAugmentedViewNodes(t *testing.T) {
	g := mustBuild(t, 6, pathEdges(6))
	e34, _ := g.FindEdge(3, 4)
	v := NewAugmentedView(g, []NodeID{0, 1}, []EdgeID{e34})
	nodes := v.Nodes()
	want := []NodeID{0, 1, 3, 4}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
	if !v.HasNode(3) || v.HasNode(5) {
		t.Error("HasNode mismatch")
	}
}

func TestEccentricityAmongBracketsDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(30) + 5
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.TryAddEdge(NodeID(rng.Intn(i)), NodeID(i))
		}
		for i := 0; i < n/2; i++ {
			b.TryAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		s := make([]NodeID, n)
		for i := range s {
			s[i] = NodeID(i)
		}
		v := NewAugmentedView(g, s, nil)
		diam := v.DiameterAmong(s)
		ecc := v.EccentricityAmong(s[0], s)
		if ecc > diam || 2*ecc < diam {
			t.Fatalf("trial %d: ecc=%d diam=%d violates [ecc, 2ecc]", trial, ecc, diam)
		}
	}
}

// TestCompactDilationMatchesReference pins DiameterAmong and
// EccentricityAmong, which search a compact copy of the view, to a
// whole-graph FilteredBFS over the view's arc filter, on random views: H
// edges with endpoints outside S, disconnected views (-1), interest sets
// other than S and interest nodes outside the view.
func TestCompactDilationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	disconnected := 0
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(40) + 1
		b := NewBuilder(n)
		for i := 0; i < n+rng.Intn(2*n+1); i++ {
			b.TryAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		var s []NodeID
		for _, u := range rng.Perm(n)[:rng.Intn(n)+1] {
			s = append(s, NodeID(u))
		}
		var h []EdgeID
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Intn(3) == 0 {
				h = append(h, EdgeID(e))
			}
		}
		v := NewAugmentedView(g, s, h)
		interests := [][]NodeID{s, v.Nodes()}
		var mixed []NodeID // random nodes, in the view or not, repeats allowed
		for i := rng.Intn(4); i >= 0; i-- {
			mixed = append(mixed, NodeID(rng.Intn(n)))
		}
		interests = append(interests, mixed)
		for _, interest := range interests {
			want := refDiameterAmong(v, interest)
			if want < 0 {
				disconnected++
			}
			if got := v.DiameterAmong(interest); got != want {
				t.Fatalf("trial %d: DiameterAmong(%v) = %d, reference %d (S=%v H=%v)", trial, interest, got, want, s, h)
			}
			src := interest[rng.Intn(len(interest))]
			if rng.Intn(4) == 0 {
				src = NodeID(rng.Intn(n))
			}
			if got, want := v.EccentricityAmong(src, interest), refEccentricityAmong(v, src, interest); got != want {
				t.Fatalf("trial %d: EccentricityAmong(%d, %v) = %d, reference %d (S=%v H=%v)", trial, src, interest, got, want, s, h)
			}
		}
	}
	if disconnected == 0 {
		t.Fatal("no disconnected view generated")
	}
}

func refEccentricityAmong(v *AugmentedView, src NodeID, interest []NodeID) int32 {
	res := v.BFS(src)
	var ecc int32
	for _, t := range interest {
		if res.Dist[t] == Unreached {
			return -1
		}
		ecc = max(ecc, res.Dist[t])
	}
	return ecc
}

func refDiameterAmong(v *AugmentedView, interest []NodeID) int32 {
	var diam int32
	for _, s := range interest {
		ecc := refEccentricityAmong(v, s, interest)
		if ecc < 0 {
			return -1
		}
		diam = max(diam, ecc)
	}
	return diam
}

func TestWeightsValidate(t *testing.T) {
	g := mustBuild(t, 3, pathEdges(3))
	w := NewUnitWeights(g.NumEdges())
	if err := w.Validate(g); err != nil {
		t.Errorf("unit weights invalid: %v", err)
	}
	bad := Weights{1}
	if err := bad.Validate(g); err == nil {
		t.Error("length-mismatched weights validated")
	}
	neg := Weights{1, -2}
	if err := neg.Validate(g); err == nil {
		t.Error("negative weights validated")
	}
}

func TestUniformWeightsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewUniformWeights(1000, rng)
	for e, x := range w {
		if !(x > 0 && x <= 1) {
			t.Fatalf("weight[%d] = %v out of (0,1]", e, x)
		}
	}
	if w.Total([]EdgeID{0, 1, 2}) != w[0]+w[1]+w[2] {
		t.Error("Total mismatch")
	}
}
