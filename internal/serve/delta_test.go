package serve_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/reproerr"
	"repro/internal/serve"
	"repro/internal/testx"
)

// TestApplyDeltaRejectsBadInput pins that malformed deltas — including
// endpoints outside the vertex universe, which must be caught before any
// part-table indexing — fail with an error, never a panic.
func TestApplyDeltaRejectsBadInput(t *testing.T) {
	fx := makeFixture(t, 200, 9)
	n := graph.NodeID(fx.g.NumNodes())
	cases := []struct {
		name string
		d    graph.Delta
	}{
		{"empty", graph.Delta{}},
		{"insert endpoint past n", graph.Delta{Insert: []graph.DeltaEdge{{U: n, V: 1}}}},
		{"insert negative endpoint", graph.Delta{Insert: []graph.DeltaEdge{{U: -1, V: 1}}}},
		{"delete endpoint past n", graph.Delta{Delete: [][2]graph.NodeID{{n, 1}}}},
		{"delete negative endpoint", graph.Delta{Delete: [][2]graph.NodeID{{0, -3}}}},
		{"delete missing edge", graph.Delta{Delete: [][2]graph.NodeID{{0, 0}}}},
		{"insert self-loop", graph.Delta{Insert: []graph.DeltaEdge{{U: 2, V: 2}}}},
	}
	for _, tc := range cases {
		if _, err := serve.ApplyDelta(context.Background(), fx.snap, tc.d, serve.DeltaOptions{}); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := serve.ApplyDelta(context.Background(), nil, graph.Delta{Insert: []graph.DeltaEdge{{U: 0, V: 1}}}, serve.DeltaOptions{}); err == nil {
		t.Error("nil snapshot: no error")
	}
}

// TestApplyDeltaRejectsDisconnectingDelta deletes the links that join one
// node to the rest of its part: the repair must fail with KindInvalidInput
// from the part's connectivity recheck, and the old snapshot must keep
// serving the same answers.
func TestApplyDeltaRejectsDisconnectingDelta(t *testing.T) {
	fx := makeFixture(t, 200, 9)
	d, part, ok := testx.DisconnectingDelta(fx.g, fx.parts)
	if !ok {
		t.Fatal("fixture has no part of two or more nodes")
	}
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Seed: 7})
	before, err := srv.Serve(serve.MSTQuery{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = serve.ApplyDelta(context.Background(), fx.snap, d, serve.DeltaOptions{})
	if k := reproerr.KindOf(err); k != reproerr.KindInvalidInput {
		t.Fatalf("ApplyDelta(%v): error %v (kind %v), want KindInvalidInput", d, err, k)
	}
	if want := fmt.Sprintf("part %d disconnected by delta", part); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
	if fx.snap.Generation() != 0 {
		t.Fatalf("old snapshot generation %d, want 0", fx.snap.Generation())
	}
	after, err := srv.Serve(serve.MSTQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("mst answer changed after a rejected delta: %+v vs %+v", before, after)
	}
}
