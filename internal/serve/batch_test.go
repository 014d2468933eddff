package serve_test

// Batch serving tests: batch versus single-query agreement, duplicate-root
// coalescing, the allocation-free warm batch path, and a concurrency stress
// of batches racing single queries (run under -race in CI).

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/serve"
)

// batchSources builds k sources cycling over the graph with deliberate
// duplicates (every 7th repeats the first).
func batchSources(n, k int) []graph.NodeID {
	srcs := make([]graph.NodeID, k)
	for i := range srcs {
		srcs[i] = graph.NodeID((i * 13) % n)
		if i%7 == 3 {
			srcs[i] = srcs[0]
		}
	}
	return srcs
}

func ssspBatch(srcs []graph.NodeID) []serve.Query {
	qs := make([]serve.Query, len(srcs))
	for i, s := range srcs {
		qs[i] = serve.SSSPQuery{Source: s}
	}
	return qs
}

// TestServeBatchKernelsAgree pins the batch walk against the single-query
// walk across batch sizes spanning the 64-source word boundary: every
// ServeBatch answer DeepEquals Serve's (cost included), every
// ServeSSSPBatchInto row holds the same distances, and both match the
// reference tree walk.
func TestServeBatchKernelsAgree(t *testing.T) {
	fx := makeFixture(t, 400, 31)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 2})

	for _, size := range []int{2, 63, 64, 65, 130} {
		srcs := batchSources(fx.g.NumNodes(), size)
		ans, err := srv.ServeBatch(ssspBatch(srcs))
		if err != nil {
			t.Fatalf("batch=%d: %v", size, err)
		}
		rows, err := srv.ServeSSSPBatchInto(nil, srcs)
		if err != nil {
			t.Fatalf("batch=%d: batch-into: %v", size, err)
		}
		for i, src := range srcs {
			single, err := srv.Serve(serve.SSSPQuery{Source: src})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ans[i], single) {
				t.Fatalf("batch=%d query %d: batched answer differs from Serve's", size, i)
			}
			if !reflect.DeepEqual(rows[i], single.(*serve.SSSPAnswer).Dist) {
				t.Fatalf("batch=%d query %d: ServeSSSPBatchInto row differs from Serve's distances", size, i)
			}
			want := referenceTreeDist(fx.g, fx.w, fx.snap.Tree(), src)
			if !reflect.DeepEqual(single.(*serve.SSSPAnswer).Dist, want) {
				t.Fatalf("batch=%d query %d: distances differ from the reference walk", size, i)
			}
		}
	}
}

// TestServeBatchCoalescesDuplicates pins the fan-out: duplicate sources in
// one batch group get answers equal to their first occurrence (same values,
// distinct backing arrays — every answer owns its distances).
func TestServeBatchCoalescesDuplicates(t *testing.T) {
	fx := makeFixture(t, 300, 33)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{})
	srcs := []graph.NodeID{5, 9, 5, 5, 123, 9}
	ans, err := srv.ServeBatch(ssspBatch(srcs))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range srcs {
		a := ans[i].(*serve.SSSPAnswer)
		if a.Source != s {
			t.Fatalf("answer %d: source %d, want %d", i, a.Source, s)
		}
		want := referenceTreeDist(fx.g, fx.w, fx.snap.Tree(), s)
		for v := range want {
			if a.Dist[v] != want[v] {
				t.Fatalf("answer %d (src %d): dist[%d]=%v, reference %v", i, s, v, a.Dist[v], want[v])
			}
		}
		for j := 0; j < i; j++ {
			if srcs[j] == s && &ans[j].(*serve.SSSPAnswer).Dist[0] == &a.Dist[0] {
				t.Fatalf("answers %d and %d share one distance slice", j, i)
			}
		}
	}
}

// TestServeSSSPBatchInto pins the warm batch path: buffer reuse, duplicate
// coalescing, agreement with the single-query walk, and counters.
func TestServeSSSPBatchInto(t *testing.T) {
	fx := makeFixture(t, 300, 35)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	n := fx.g.NumNodes()
	srcs := batchSources(n, 70)

	dst := make([][]float64, len(srcs))
	for i := range dst {
		dst[i] = make([]float64, n)
	}
	out, err := srv.ServeSSSPBatchInto(dst, srcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(srcs) || &out[0][0] != &dst[0][0] {
		t.Fatal("ServeSSSPBatchInto did not reuse the destination buffers")
	}
	single := make([]float64, n)
	for i, s := range srcs {
		single, err = srv.ServeSSSPInto(single, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range single {
			if out[i][v] != single[v] {
				t.Fatalf("slot %d (src %d): dist[%d] batched %v vs single %v", i, s, v, out[i][v], single[v])
			}
		}
	}
	if empty, err := srv.ServeSSSPBatchInto(out, nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %d rows, err %v", len(empty), err)
	}
	st := srv.Stats()
	if st.Batches != 1 || st.BatchedQueries != int64(len(srcs)) {
		t.Fatalf("batch counters: %+v", st)
	}
}

// TestServeSSSPBatchIntoAllocs pins the 0 allocs/op property of the warm
// batch path — the CI bench smoke's assertion, as a plain test.
func TestServeSSSPBatchIntoAllocs(t *testing.T) {
	fx := makeFixture(t, 400, 37)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	srcs := batchSources(fx.g.NumNodes(), 64)
	dst := make([][]float64, len(srcs))
	for i := range dst {
		dst[i] = make([]float64, fx.g.NumNodes())
	}
	var err error
	for i := 0; i < 2; i++ { // warm executor scratch
		if dst, err = srv.ServeSSSPBatchInto(dst, srcs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if dst, err = srv.ServeSSSPBatchInto(dst, srcs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ServeSSSPBatchInto allocates %v per run, want 0", allocs)
	}
}

// TestServeBatchConcurrentStress hammers one snapshot from concurrent
// goroutines mixing ServeBatch groups, ServeSSSPBatchInto rows and single
// queries on one two-executor pool, verifying every answer against the
// reference. The CI -race leg runs this to pin executor-scratch ownership
// under real concurrency.
func TestServeBatchConcurrentStress(t *testing.T) {
	fx := makeFixture(t, 240, 39)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 2})
	n := fx.g.NumNodes()
	want := make([][]float64, n)
	for v := 0; v < n; v++ {
		want[v] = referenceTreeDist(fx.g, fx.w, fx.snap.Tree(), graph.NodeID(v))
	}

	const goroutines = 4
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				batch := 1 + (gi*17+it*31)%80
				srcs := make([]graph.NodeID, batch)
				for i := range srcs {
					srcs[i] = graph.NodeID((gi*89 + it*53 + i*7) % n)
				}
				rows := make([][]float64, batch)
				switch (gi + it) % 3 {
				case 0:
					ans, err := srv.ServeBatch(ssspBatch(srcs))
					if err != nil {
						errs <- fmt.Errorf("g%d it%d: %w", gi, it, err)
						return
					}
					for i := range srcs {
						rows[i] = ans[i].(*serve.SSSPAnswer).Dist
					}
				case 1:
					var err error
					if rows, err = srv.ServeSSSPBatchInto(nil, srcs); err != nil {
						errs <- fmt.Errorf("g%d it%d: %w", gi, it, err)
						return
					}
				default:
					for i, s := range srcs {
						a, err := srv.ServeSSSP(s)
						if err != nil {
							errs <- fmt.Errorf("g%d it%d: %w", gi, it, err)
							return
						}
						rows[i] = a.Dist
					}
				}
				for i, s := range srcs {
					got := rows[i]
					for v := range got {
						if got[v] != want[s][v] {
							errs <- fmt.Errorf("g%d it%d src %d: dist[%d]=%v, want %v", gi, it, s, v, got[v], want[s][v])
							return
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
