package gateway

import (
	"bytes"
	"context"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// BenchmarkGatewaySSSPWarmCore is the gateway's below-HTTP hot path with a
// live instrument set: admission (slot acquire, depth gauge, peak CAS),
// executor checkout, and the preallocated-row warm sssp serve. CI's
// benchmark smoke asserts this stays at 0 allocs/op — the gateway layer
// must add control, not garbage; the JSON codec above it is the wire
// format's price, measured separately below.
func BenchmarkGatewaySSSPWarmCore(b *testing.B) {
	fx := makeFixture(b, 2_000, 31)
	reg := obs.New()
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1, Metrics: reg})
	gw, err := New(srv, Options{QueueDepth: 4, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	ctx := context.Background()
	dst := make([]float64, fx.g.NumNodes())
	if dst, err = gw.ssspCore(ctx, dst, 0); err != nil { // warm the executor
		b.Fatal(err)
	}
	// Collect fixture and warm-up garbage before the timed window: at
	// -benchtime=1x a background GC landing inside it reads as spurious
	// allocs/op in the zero-alloc gate.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = gw.ssspCore(ctx, dst, graph.NodeID(i%fx.g.NumNodes()))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayQueryHTTP measures the full wire path — mux, request
// decode, serve, the direct sssp response writer — for the wire-overhead
// comparison against the core above. Allocates (request decode, recorder,
// the answer row); reported in CI's bench smoke, not gated.
func BenchmarkGatewayQueryHTTP(b *testing.B) {
	fx := makeFixture(b, 2_000, 31)
	srv := serve.NewServer(fx.snap, serve.ServerOptions{Executors: 1})
	gw, err := New(srv, Options{QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	h := gw.Handler()
	body := []byte(`{"kind":"sssp","source":0}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}
