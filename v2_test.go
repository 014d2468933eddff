package repro_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro"
	"repro/internal/gen"
)

// v2Fixture builds the shared graph/weights/partition the equivalence
// tests run both API generations over.
type v2Fixture struct {
	g     *repro.Graph
	w     repro.Weights
	parts [][]repro.NodeID
	p     *repro.Partition
}

func makeV2Fixture(t *testing.T) *v2Fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g, err := repro.ClusterChain(600, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := repro.VoronoiParts(g, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.NewPartition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	return &v2Fixture{g: g, w: repro.UniformWeights(g, rng), parts: parts, p: p}
}

func rngAt(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// makeTwoECSSGraph builds a guaranteed 2-edge-connected input (a cycle plus
// distance-2 chords) for the 2-ECSS entry points.
func makeTwoECSSGraph(t *testing.T) (*repro.Graph, repro.Weights) {
	t.Helper()
	const n = 120
	var edges [][2]repro.NodeID
	for i := 0; i < n; i++ {
		edges = append(edges, [2]repro.NodeID{repro.NodeID(i), repro.NodeID((i + 1) % n)})
		edges = append(edges, [2]repro.NodeID{repro.NodeID(i), repro.NodeID((i + 2) % n)})
	}
	g, err := repro.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, repro.UniformWeights(g, rngAt(8))
}

// TestV2EquivalenceShortcuts pins v1 and v2 bit-identical for the same
// randomness source on the centralized construction.
func TestV2EquivalenceShortcuts(t *testing.T) {
	fx := makeV2Fixture(t)
	v1, err := repro.BuildShortcuts(fx.g, fx.p, repro.ShortcutOptions{Diameter: 5, LogFactor: 0.3, Rng: rngAt(7)})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := repro.BuildShortcutsCtx(context.Background(), fx.g, fx.p,
		repro.WithDiameter(5), repro.WithSamplingBoost(0.3), repro.WithRng(rngAt(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1.H, v2.H) || v1.Params != v2.Params {
		t.Fatal("v2 centralized shortcuts differ from v1 for the same seed")
	}
}

// TestV2EquivalenceDistributed pins the distributed construction: identical
// shortcuts, identical exact cost accounting (wall time excluded).
func TestV2EquivalenceDistributed(t *testing.T) {
	fx := makeV2Fixture(t)
	v1, err := repro.BuildShortcutsDistributed(fx.g, fx.p, repro.DistShortcutOptions{LogFactor: 0.3, Rng: rngAt(7)})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := repro.BuildShortcutsDistributedCtx(context.Background(), fx.g, fx.p,
		repro.WithSamplingBoost(0.3), repro.WithRng(rngAt(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1.S.H, v2.S.H) {
		t.Fatal("v2 distributed shortcuts differ from v1")
	}
	if v1.Rounds != v2.Rounds || v1.Messages != v2.Messages || v1.SchedStats != v2.SchedStats ||
		v1.Guesses != v2.Guesses || v1.Diameter != v2.Diameter {
		t.Fatalf("v2 accounting differs: v1 %+v/%+v vs v2 %+v/%+v",
			v1.Cost, v1.SchedStats, v2.Cost, v2.SchedStats)
	}
}

// TestV2EquivalenceApplications pins the whole application family.
func TestV2EquivalenceApplications(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()

	m1, err := repro.MSTDistributed(fx.g, fx.w, repro.MSTDistOptions{Diameter: 5, LogFactor: 0.3, Rng: rngAt(3)})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w,
		repro.WithDiameter(5), repro.WithSamplingBoost(0.3), repro.WithRng(rngAt(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Tree, m2.Tree) || m1.Weight != m2.Weight ||
		m1.Rounds != m2.Rounds || m1.Messages != m2.Messages {
		t.Fatal("v2 MST differs from v1")
	}

	s1, err := repro.SSSPApprox(fx.g, fx.w, 4, repro.SSSPTreeOptions{Diameter: 5, LogFactor: 0.3, Rng: rngAt(4)})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := repro.SSSPApproxCtx(ctx, fx.g, fx.w, 4,
		repro.WithDiameter(5), repro.WithSamplingBoost(0.3), repro.WithRng(rngAt(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.Dist, s2.Dist) || s1.Rounds != s2.Rounds || s1.Messages != s2.Messages {
		t.Fatal("v2 SSSP differs from v1")
	}

	c1, err := repro.MinCutApprox(fx.g, fx.w, repro.MinCutApproxOptions{Diameter: 5, LogFactor: 0.3, Trees: 4, Rng: rngAt(5)})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := repro.MinCutApproxCtx(ctx, fx.g, fx.w,
		repro.WithDiameter(5), repro.WithSamplingBoost(0.3), repro.WithTrees(4), repro.WithRng(rngAt(5)))
	if err != nil {
		t.Fatal(err)
	}
	if c1.Value != c2.Value || !reflect.DeepEqual(c1.Side, c2.Side) || c1.Trees != c2.Trees {
		t.Fatal("v2 min cut differs from v1")
	}

	tg, tw := makeTwoECSSGraph(t)
	e1, err := repro.TwoECSS(tg, tw, repro.TwoECSSOptions{LogFactor: 0.3, Rng: rngAt(6)})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := repro.TwoECSSCtx(ctx, tg, tw,
		repro.WithSamplingBoost(0.3), repro.WithRng(rngAt(6)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e1.Edges, e2.Edges) || e1.Weight != e2.Weight {
		t.Fatal("v2 2-ECSS differs from v1")
	}
}

// TestV2SeedDeterminism asserts WithSeed is a complete replacement for raw
// *rand.Rand plumbing: equal seeds give bit-identical results, different
// seeds (generically) different samplings, with no shared mutable state
// between calls.
func TestV2SeedDeterminism(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()
	opts := func(seed uint64) []repro.Option {
		return []repro.Option{repro.WithDiameter(5), repro.WithSamplingBoost(0.3), repro.WithSeed(seed)}
	}
	a, err := repro.BuildShortcutsCtx(ctx, fx.g, fx.p, opts(42)...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.BuildShortcutsCtx(ctx, fx.g, fx.p, opts(42)...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.H, b.H) {
		t.Fatal("same seed produced different shortcuts")
	}
	c, err := repro.BuildShortcutsCtx(ctx, fx.g, fx.p, opts(43)...)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.H, c.H) {
		t.Fatal("different seeds produced identical samplings (suspicious)")
	}

	m1, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w, opts(42)...)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w, opts(42)...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Tree, m2.Tree) || m1.Rounds != m2.Rounds {
		t.Fatal("same seed produced different MSTs")
	}
}

// TestV2ErrorTaxonomy asserts every validation failure across the facade
// satisfies errors.As(err, **repro.Error) with KindInvalidInput, with the
// uniform randomness-requirement message — including twoecss's formerly
// conditional Rng validation, now folded into the shared rule.
func TestV2ErrorTaxonomy(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()

	missingRng := map[string]func() error{
		"BuildShortcutsCtx": func() error {
			_, err := repro.BuildShortcutsCtx(ctx, fx.g, fx.p)
			return err
		},
		"BuildShortcutsDistributedCtx": func() error {
			_, err := repro.BuildShortcutsDistributedCtx(ctx, fx.g, fx.p)
			return err
		},
		"BuildShortcutsLocalCtx": func() error {
			_, err := repro.BuildShortcutsLocalCtx(ctx, fx.g, fx.p)
			return err
		},
		"MSTDistributedCtx": func() error {
			_, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w)
			return err
		},
		"SSSPApproxCtx": func() error {
			_, err := repro.SSSPApproxCtx(ctx, fx.g, fx.w, 0)
			return err
		},
		"MinCutApproxCtx": func() error {
			_, err := repro.MinCutApproxCtx(ctx, fx.g, fx.w)
			return err
		},
		"TwoECSSCtx": func() error {
			_, err := repro.TwoECSSCtx(ctx, fx.g, fx.w)
			return err
		},
		"NewSnapshotCtx": func() error {
			_, err := repro.NewSnapshotCtx(ctx, fx.g, fx.w, fx.parts)
			return err
		},
	}
	var firstMsg string
	for name, call := range missingRng {
		err := call()
		if err == nil {
			t.Errorf("%s: no error without randomness", name)
			continue
		}
		var re *repro.Error
		if !errors.As(err, &re) {
			t.Errorf("%s: %v is not a *repro.Error", name, err)
			continue
		}
		if re.Kind != repro.KindInvalidInput {
			t.Errorf("%s: kind %v, want KindInvalidInput", name, re.Kind)
		}
		// Uniform message: every entry point shares one cause string.
		if firstMsg == "" {
			firstMsg = re.Err.Error()
		} else if re.Err.Error() != firstMsg {
			t.Errorf("%s: cause %q differs from %q", name, re.Err.Error(), firstMsg)
		}
	}

	// twoecss with a prebuilt tree needs no randomness — the deterministic
	// member of the family keeps working under the shared validation.
	tg, tw := makeTwoECSSGraph(t)
	mres, err := repro.MSTDistributedCtx(ctx, tg, tw, repro.WithSeed(1), repro.WithSamplingBoost(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.TwoECSSCtx(ctx, tg, tw, repro.WithTree(mres.Tree)); err != nil {
		t.Errorf("TwoECSSCtx with prebuilt tree should not need randomness: %v", err)
	}

	// Invalid option values fail at config time with the same taxonomy.
	_, err = repro.MSTDistributedCtx(ctx, fx.g, fx.w, repro.WithSeed(1), repro.WithDiameter(-1))
	var re *repro.Error
	if !errors.As(err, &re) || re.Kind != repro.KindInvalidInput {
		t.Errorf("negative diameter: want KindInvalidInput *Error, got %v", err)
	}

	// Weight validation is typed too.
	_, err = repro.MSTDistributedCtx(ctx, fx.g, fx.w[:1], repro.WithSeed(1))
	if !errors.As(err, &re) || re.Kind != repro.KindInvalidInput {
		t.Errorf("short weights: want KindInvalidInput *Error, got %v", err)
	}
}

// TestV2BudgetExceededTaxonomy asserts round-budget overruns carry
// KindBudgetExceeded and still satisfy the legacy sentinel errors.Is.
func TestV2BudgetExceededTaxonomy(t *testing.T) {
	fx := makeV2Fixture(t)
	_, err := repro.MSTDistributedCtx(context.Background(), fx.g, fx.w,
		repro.WithSeed(1), repro.WithDiameter(5), repro.WithSamplingBoost(0.3), repro.WithMaxRounds(1))
	if err == nil {
		t.Fatal("MaxRounds=1 completed")
	}
	var re *repro.Error
	if !errors.As(err, &re) || re.Kind != repro.KindBudgetExceeded {
		t.Fatalf("want KindBudgetExceeded, got %v", err)
	}
	if !errors.Is(err, repro.ErrSchedMaxRounds) && !errors.Is(err, repro.ErrEngineMaxRounds) {
		t.Fatalf("budget error lost its sentinel: %v", err)
	}
}

// TestV2FacadeCancellation asserts the facade's context-first entry points
// abort on a canceled context with the canceled taxonomy.
func TestV2FacadeCancellation(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := []repro.Option{repro.WithSeed(1), repro.WithDiameter(5), repro.WithSamplingBoost(0.3)}

	if _, err := repro.NewSnapshotCtx(ctx, fx.g, fx.w, fx.parts, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("NewSnapshotCtx: got %v", err)
	}
	if _, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("MSTDistributedCtx: got %v", err)
	}
	if _, err := repro.BuildShortcutsDistributedCtx(ctx, fx.g, fx.p, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("BuildShortcutsDistributedCtx: got %v", err)
	}
	if _, _, err := repro.RunCongestCtx(ctx, fx.g, nopFactory, opts...); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCongestCtx: got %v", err)
	}
	if err := repro.ErrorKindOf(ctxErrOf(t, fx)); err != repro.KindCanceled {
		t.Errorf("ErrorKindOf: got %v, want KindCanceled", err)
	}
}

func ctxErrOf(t *testing.T, fx *v2Fixture) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := repro.MSTDistributedCtx(ctx, fx.g, fx.w, repro.WithSeed(1), repro.WithDiameter(5), repro.WithSamplingBoost(0.3))
	return err
}

// nopFactory keeps one message bouncing so the engine reaches a round
// barrier (where the context check lives) before quiescing.
func nopFactory(v *repro.CongestView) repro.CongestProgram { return pingProg{} }

type pingProg struct{}

func (pingProg) Init(v *repro.CongestView, out *repro.CongestOutbox) {
	out.Broadcast(v, repro.CongestMessage{Kind: 1})
}

func (pingProg) Round(round int, v *repro.CongestView, in []repro.CongestInbound, out *repro.CongestOutbox) {
	if round < 4 {
		out.Broadcast(v, repro.CongestMessage{Kind: 1})
	}
}

func (pingProg) Done() bool { return true }

// TestV2ApplyDelta pins the facade's dynamic-graph surface: ApplyDeltaCtx
// produces a snapshot bit-identical (tree, weight, quality) to a
// from-scratch NewSnapshotCtx on the post-delta graph with the same seed,
// and the Store hot-swap serves it.
func TestV2ApplyDelta(t *testing.T) {
	fx := makeV2Fixture(t)
	ctx := context.Background()
	opts := []repro.Option{repro.WithSeed(11), repro.WithDiameter(5), repro.WithSamplingBoost(0.3)}
	base, err := repro.NewSnapshotCtx(ctx, fx.g, fx.w, fx.parts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// An insert-only delta is always repairable.
	d, err := gen.InsertDelta(fx.g, 8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := repro.ApplyDeltaCtx(ctx, base, d)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Generation() != 1 || repaired.Repair() == nil {
		t.Fatalf("generation %d, repair %+v", repaired.Generation(), repaired.Repair())
	}
	if repaired.Cost().Wall <= 0 {
		t.Error("repair Cost.Wall not recorded")
	}
	g2, w2, _, err := repro.ApplyGraphDelta(fx.g, fx.w, d)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := repro.NewSnapshotCtx(ctx, g2, w2, fx.parts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repaired.Tree(), rebuilt.Tree()) {
		t.Fatal("repaired tree differs from rebuilt tree")
	}
	if repaired.TreeWeight() != rebuilt.TreeWeight() || repaired.Quality() != rebuilt.Quality() {
		t.Fatalf("repaired %v/%v vs rebuilt %v/%v",
			repaired.TreeWeight(), repaired.Quality(), rebuilt.TreeWeight(), rebuilt.Quality())
	}

	// Hot-swap: a store-backed v2 server answers against the repaired
	// snapshot after SwapCtx drains the base epoch.
	store := repro.NewStore(base)
	srv, err := repro.NewStoreServerV2(store, repro.WithExecutors(2), repro.WithServerSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ServeCtx(ctx, repro.MSTQuery{}); err != nil {
		t.Fatal(err)
	}
	retired, err := store.SwapCtx(ctx, repaired)
	if err != nil {
		t.Fatal(err)
	}
	if retired != base || store.Epoch() != 2 {
		t.Fatalf("swap: retired %p epoch %d", retired, store.Epoch())
	}
	a, err := srv.ServeCtx(ctx, repro.MSTQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if a.(*repro.MSTAnswer).Weight != repaired.TreeWeight() {
		t.Fatal("store-backed server answered against the retired epoch")
	}
}

// TestV2ServerEquivalence pins the v2 server construction and context-first
// query methods against the v1 server.
func TestV2ServerEquivalence(t *testing.T) {
	fx := makeV2Fixture(t)
	snap, err := repro.NewSnapshotCtx(context.Background(), fx.g, fx.w, fx.parts,
		repro.WithSeed(9), repro.WithDiameter(5), repro.WithSamplingBoost(0.3))
	if err != nil {
		t.Fatal(err)
	}
	v1 := repro.NewServer(snap, repro.ServerOptions{Executors: 2, Seed: 123})
	v2, err := repro.NewServerV2(snap, repro.WithExecutors(2), repro.WithServerSeed(123))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := v1.Serve(repro.MinCutQuery{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := v2.ServeCtx(context.Background(), repro.MinCutQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("v2 server answer differs from v1")
	}
	if snap.Cost().Wall <= 0 {
		t.Error("snapshot build Cost.Wall not recorded")
	}
}
