package congest

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// testGraphs builds the graph shapes the engine equivalence properties run
// over: the "typical" ClusterChain workload, the lower-bound-shaped
// HardInstance, and a sparse random graph, across a few seeds.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	shapes := make(map[string]*graph.Graph)
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		cc, err := gen.ClusterChain(700+int(seed)*100, 5, rng)
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprintf("clusterchain/seed=%d", seed)] = cc
		hi, err := gen.NewHardInstance(500+int(seed)*50, 4, 0, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprintf("hardinstance/seed=%d", seed)] = hi.G
		shapes[fmt.Sprintf("erdosrenyi/seed=%d", seed)] = gen.ErdosRenyi(300, 0.02, rng)
	}
	return shapes
}

// workerSweeps returns the worker counts the pool is exercised with,
// including counts that do not divide n and a count above NumCPU; 0 is
// the engine NewEngine picks on this host.
func workerSweeps() []int {
	return []int{2, 3, 5, 8, runtime.GOMAXPROCS(0), 2*runtime.GOMAXPROCS(0) + 1, 0}
}

// TestEngineEquivalenceProperty asserts the tentpole determinism guarantee:
// for every graph shape, seed, and worker count, the sharded pool produces
// byte-identical program outputs and Stats to the sequential engine — for a
// program (BFS) whose outputs are sensitive to inbox ordering, and for a
// multi-phase composite (BFS + enumerate) whose second phase depends on the
// first's full output.
func TestEngineEquivalenceProperty(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			root := graph.NodeID(g.NumNodes() / 3)
			wantTree, wantStats, err := RunBFS(g, root, seq(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			marked := make([]bool, g.NumNodes())
			for v := range marked {
				marked[v] = v%5 == 0
			}
			wantEnum, wantEnumStats, err := RunEnumerate(g, wantTree, marked, seq(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerSweeps() {
				eng := engineFor(workers, Options{MaxRounds: 1 << 20})
				tree, stats, err := RunBFS(g, root, eng)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if stats != wantStats {
					t.Errorf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
				}
				if !reflect.DeepEqual(tree.Dist, wantTree.Dist) ||
					!reflect.DeepEqual(tree.ParentPort, wantTree.ParentPort) {
					t.Errorf("workers=%d: BFS tree differs from sequential", workers)
				}
				if !childPortsEqual(tree.ChildPorts, wantTree.ChildPorts) {
					t.Errorf("workers=%d: child ports differ from sequential", workers)
				}
				enum, enumStats, err := RunEnumerate(g, tree, marked, eng)
				if err != nil {
					t.Fatalf("workers=%d enumerate: %v", workers, err)
				}
				if enumStats != wantEnumStats {
					t.Errorf("workers=%d: enumerate stats %+v, want %+v", workers, enumStats, wantEnumStats)
				}
				if enum.Total != wantEnum.Total || !reflect.DeepEqual(enum.Index, wantEnum.Index) {
					t.Errorf("workers=%d: enumeration differs from sequential", workers)
				}
			}
		})
	}
}

// TestFlatEngineMatchesSeedEngine pins both modes of the flat-buffer engine
// to the seed engine's observable behavior on the BFS workload: identical
// distances, parent ports (inbox-order sensitive!), child ports, and Stats.
// Inbox order is preserved because Builder sorts each node's neighbor list
// by ID, so the seed's (receiver, sender-arc) sort order coincides with the
// flat engine's CSR port order.
func TestFlatEngineMatchesSeedEngine(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			root := graph.NodeID(1)
			seedTree, seedStats, err := seedRunBFS(g, root, false, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			goSeedTree, goSeedStats, err := seedRunBFS(g, root, true, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if seedStats != goSeedStats || !reflect.DeepEqual(seedTree.Dist, goSeedTree.Dist) {
				t.Fatal("seed engines disagree with each other")
			}
			for _, workers := range []int{1, 4, 0} {
				tree, stats, err := RunBFS(g, root, engineFor(workers, Options{MaxRounds: 1 << 20}))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if stats != seedStats {
					t.Errorf("workers=%d: stats %+v, want seed %+v", workers, stats, seedStats)
				}
				if !reflect.DeepEqual(tree.Dist, seedTree.Dist) ||
					!reflect.DeepEqual(tree.ParentPort, seedTree.ParentPort) {
					t.Errorf("workers=%d: tree differs from seed engine", workers)
				}
				if !childPortsEqual(tree.ChildPorts, seedTree.ChildPorts) {
					t.Errorf("workers=%d: child ports differ from seed engine", workers)
				}
			}
		})
	}
}

// childPortsEqual treats nil and empty per-node slices as equal.
func childPortsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if len(a[v]) != len(b[v]) {
			return false
		}
		for i := range a[v] {
			if a[v][i] != b[v][i] {
				return false
			}
		}
	}
	return true
}

// TestEngineWorkersExceedNodes covers the degenerate pool configurations.
func TestEngineWorkersExceedNodes(t *testing.T) {
	g := gen.Path(5)
	tree, stats, err := RunBFS(g, 0, engineFor(64, Options{MaxRounds: 100}))
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := RunBFS(g, 0, seq(100))
	if err != nil {
		t.Fatal(err)
	}
	if stats != wantStats || !reflect.DeepEqual(tree.Dist, want.Dist) {
		t.Errorf("64 workers on n=5 differs: %+v vs %+v", stats, wantStats)
	}
}

// TestEngineEmptyGraph: a run over zero nodes terminates in zero rounds.
func TestEngineEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	for _, workers := range []int{1, 4} {
		stats, progs, err := engineFor(workers, Options{MaxRounds: 10}).Run(g, func(v *View) Program { return &bfsNode{root: 0} })
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 0 || stats.Messages != 0 || len(progs) != 0 {
			t.Errorf("workers=%d: %+v, %d programs", workers, stats, len(progs))
		}
	}
}

// TestEngineSteadyStateAllocs asserts the zero-allocation claim for the
// delivery path: a run's allocations are the O(n) per-run state (programs,
// views, flat buffers), NOT a function of delivered message volume. We run
// the same always-broadcasting program for 10 and for 60 rounds and require
// the 50 extra rounds of full-graph traffic to add (almost) no allocations.
func TestEngineSteadyStateAllocs(t *testing.T) {
	g := gen.Cycle(2000)
	run := func(maxRounds int) (msgs int64) {
		eng := seq(maxRounds)
		stats, _, err := eng.Run(g, func(*View) Program { return chatterbox{} })
		if err == nil {
			t.Fatal("chatterbox should exhaust MaxRounds")
		}
		return stats.Messages
	}
	var shortMsgs, longMsgs int64
	shortAllocs := testing.AllocsPerRun(5, func() { shortMsgs = run(10) })
	longAllocs := testing.AllocsPerRun(5, func() { longMsgs = run(60) })
	extraMsgs := longMsgs - shortMsgs
	if extraMsgs < 100_000 {
		t.Fatalf("expected ≥100k extra messages, got %d", extraMsgs)
	}
	marginal := (longAllocs - shortAllocs) / float64(extraMsgs)
	if marginal > 0.001 {
		t.Errorf("marginal allocations per delivered message = %f (%f → %f allocs for %d extra msgs); delivery path is allocating in steady state",
			marginal, shortAllocs, longAllocs, extraMsgs)
	}
}
