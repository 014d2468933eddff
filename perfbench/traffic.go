package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/serve"
)

// traceDepth sizes each traced server's query-trace ring so that no
// record of a phase is overwritten.
const traceDepth = 1 << 17

// tagged carries a schedule event's index through load.Runner to the
// benchmark's backend, which unwraps it before the real call. Embedding
// serve.Query keeps it a valid query for the runner.
type tagged struct {
	serve.Query
	id int32
}

// reqRecord is one open-loop request as the benchmark saw it.
type reqRecord struct {
	kind string
	lat  time.Duration // around Backend.Do, executor wait included
	lag  time.Duration // scheduled arrival → call into the backend
	ok   bool
}

// reqKey carries the request's id and Do span to the wire RoundTripper.
type reqKey struct{}

type reqInfo struct {
	req  int64
	span int32
}

// timedBackend wraps a load.Backend: it times every call, records the
// dispatch lag against the event's scheduled instant, opens the request's
// root span, and keeps a sample of sssp answers for the bit-identity
// checks.
type timedBackend struct {
	inner    load.Backend
	at       []time.Duration // scheduled instant per event id
	reqBase  int64
	spanName string
	tr       *tracer
	start    time.Time
	keep     int

	mu   sync.Mutex
	recs []reqRecord
	kept []load.Completion
}

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) Do(ctx context.Context, q serve.Query) (load.Completion, error) {
	tq := q.(tagged)
	req := b.reqBase + int64(tq.id)
	entry := time.Now()
	sid := b.tr.begin(b.spanName, -1, req)
	if b.tr != nil {
		ctx = context.WithValue(ctx, reqKey{}, reqInfo{req: req, span: sid})
	}
	comp, err := b.inner.Do(ctx, tq.Query)
	lat := time.Since(entry)
	b.tr.end(sid)
	rec := reqRecord{kind: kindName(tq.Query), lat: lat, lag: entry.Sub(b.start) - b.at[tq.id], ok: err == nil}
	b.mu.Lock()
	b.recs = append(b.recs, rec)
	if err == nil && comp.Dist != nil && len(b.kept) < b.keep {
		b.kept = append(b.kept, comp)
	}
	b.mu.Unlock()
	return comp, err
}

func kindName(q serve.Query) string {
	switch q.(type) {
	case serve.SSSPQuery:
		return "sssp"
	case serve.MSTQuery:
		return "mst"
	case serve.MinCutQuery:
		return "mincut"
	case serve.TwoECSSQuery:
		return "twoecss"
	case serve.QualityQuery:
		return "quality"
	}
	return fmt.Sprintf("%T", q)
}

// loopTotals pools the rounds of one open loop.
type loopTotals struct {
	recs                                []reqRecord
	kept                                []load.Completion
	offered, overflow, checked, updates int
	generations                         int
	swaps                               int64
}

func (t *loopTotals) latencies(kind string) []float64 {
	var out []float64
	for _, rc := range t.recs {
		if rc.ok && rc.kind == kind {
			out = append(out, ms(rc.lat))
		}
	}
	return out
}

func (t *loopTotals) lags() []float64 {
	out := make([]float64, len(t.recs))
	for i, rc := range t.recs {
		out[i] = ms(max(rc.lag, 0))
	}
	return out
}

func (t *loopTotals) delivered() int {
	n := 0
	for _, rc := range t.recs {
		if rc.ok {
			n++
		}
	}
	return n
}

// openLoop replays sched through load.Runner against backend and pools
// the outcome into into. With a store, the schedule's updates race the
// queries on it and every sssp answer is attributed to a snapshot
// generation (the torn-answer check).
func (r *run) openLoop(into *loopTotals, span string, reqBase int64, backend load.Backend, store *serve.Store, sched *load.Schedule, keep int) error {
	tb := &timedBackend{inner: backend, reqBase: reqBase, spanName: span, tr: r.tr, keep: keep}
	tb.at = make([]time.Duration, len(sched.Events))
	for i, ev := range sched.Events {
		tb.at[i] = ev.At
		sched.Events[i].Query = tagged{Query: ev.Query, id: int32(i)}
	}
	runner := &load.Runner{Schedule: sched, Backend: tb, Store: store}
	tb.start = time.Now()
	res, err := runner.Run(context.Background())
	if err != nil {
		return err
	}
	if store != nil {
		if res.Torn != 0 || res.Checked == 0 {
			return fmt.Errorf("%s: %d of %d checked answers torn", span, res.Torn, res.Checked)
		}
		into.swaps += store.Swaps()
	}
	r.attempted += res.Offered
	for _, rc := range tb.recs {
		if !rc.ok {
			r.failed++
		}
	}
	r.failed += res.Offered - len(tb.recs) // overflowed, never dispatched
	into.recs = append(into.recs, tb.recs...)
	into.kept = append(into.kept, tb.kept...)
	into.offered += res.Offered
	into.overflow += res.Overflow
	into.checked += res.Checked
	into.updates += res.UpdatesApplied
	into.generations = max(into.generations, res.Generations)
	return nil
}

// zipfRoots pre-draws k sssp roots with the load package's skew.
func zipfRoots(n, k int, rng *rand.Rand) []graph.NodeID {
	z := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	out := make([]graph.NodeID, k)
	for i := range out {
		out[i] = graph.NodeID(z.Uint64())
	}
	return out
}

const zipfS = 1.1

// closedLoop runs nproc callers back to back for d, split into windows
// consecutive windows: each caller issues one single-root ServeCtx
// (batch 1) or one ServeBatchCtx of batch roots per call, starting at
// root offset first. It returns each window's roots answered per second
// and the roots answered in all.
func (r *run) closedLoop(srv *serve.Server, roots []graph.NodeID, first, batch, windows int, d time.Duration) ([]float64, int, error) {
	workers := runtime.NumCPU()
	var rates []float64
	total := 0
	next := make([]int, workers)
	for w := range next {
		next[w] = first + w*len(roots)/workers
	}
	for win := 0; win < windows; win++ {
		var wg sync.WaitGroup
		counts := make([]int, workers)
		errs := make([]error, workers)
		start := time.Now()
		deadline := start.Add(d / time.Duration(windows))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				qs := make([]serve.Query, batch)
				for time.Now().Before(deadline) {
					for i := range qs {
						qs[i] = serve.SSSPQuery{Source: roots[next[w]%len(roots)]}
						next[w]++
					}
					var err error
					if batch == 1 {
						_, err = srv.ServeCtx(context.Background(), qs[0])
					} else {
						_, err = srv.ServeBatchCtx(context.Background(), qs)
					}
					if err != nil {
						errs[w] = err
						return
					}
					counts[w] += batch
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		n := 0
		for _, c := range counts {
			n += c
		}
		r.attempted += n / batch
		if err := errors.Join(errs...); err != nil {
			r.failed += workers
			return nil, 0, err
		}
		total += n
		rates = append(rates, float64(n)/elapsed.Seconds())
	}
	return rates, total, nil
}

// checkBatch asserts one 64-root batch answers bit-identically to Serve.
func checkBatch(srv *serve.Server, roots []graph.NodeID) error {
	qs := make([]serve.Query, len(roots))
	for i, rt := range roots {
		qs[i] = serve.SSSPQuery{Source: rt}
	}
	got, err := srv.ServeBatch(qs)
	if err != nil {
		return err
	}
	for i, q := range qs {
		want, err := srv.Serve(q)
		if err != nil {
			return err
		}
		if err := sameDist(got[i].(*serve.SSSPAnswer).Dist, want.(*serve.SSSPAnswer).Dist); err != nil {
			return fmt.Errorf("batch answer for root %d: %w", roots[i], err)
		}
	}
	return nil
}

// wireServer is an in-process gateway on a loopback listener with
// lcsserve's default options, plus a client capped at nproc connections.
type wireServer struct {
	gw        *gateway.Gateway
	hs        *http.Server
	done      chan struct{}
	transport *http.Transport
	spans     *spanTransport // nil in the untraced run
	client    *http.Client
	addr      string
}

func startWire(srv *serve.Server, reg *obs.Registry, tr *tracer, nproc int) (*wireServer, error) {
	gw, err := gateway.New(srv, gateway.Options{Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, err
	}
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = handlerSpans(h, tr)
	}
	ws := &wireServer{gw: gw, hs: &http.Server{Handler: h}, done: make(chan struct{}), addr: ln.Addr().String()}
	go func() {
		defer close(ws.done)
		_ = ws.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	ws.transport = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	ws.client = &http.Client{Transport: ws.transport}
	if tr != nil {
		ws.spans = &spanTransport{next: ws.transport, tr: tr}
		ws.client.Transport = ws.spans
	}
	return ws, nil
}

func (ws *wireServer) stop() error {
	ws.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ws.hs.Shutdown(ctx)
	<-ws.done
	ws.gw.Close()
	return err
}

// reqHeader carries the benchmark's request id to the gateway middleware.
const reqHeader = "X-Perfbench-Req"

// handlerSpans is the benchmark-owned middleware around Gateway.Handler:
// one gateway.handler span per request, keyed by the client's request id.
func handlerSpans(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, _ := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		sid := tr.begin("gateway.handler", -1, id)
		next.ServeHTTP(w, req)
		tr.end(sid)
	})
}

// spanTransport records wire.roundtrip (request out to response headers
// in) and wire.body_read (first body read to EOF) under the request's
// wire.do span, and counts response bytes.
type spanTransport struct {
	next http.RoundTripper
	tr   *tracer

	mu    sync.Mutex
	sizes []float64 // response body bytes, one per request
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	info, _ := req.Context().Value(reqKey{}).(reqInfo)
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatInt(info.req, 10))
	sid := t.tr.begin("wire.roundtrip", info.span, info.req)
	resp, err := t.next.RoundTrip(req)
	t.tr.end(sid)
	if err != nil {
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, info: info, sid: -1}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t     *spanTransport
	info  reqInfo
	sid   int32
	bytes int64
	ended bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	if b.sid < 0 && !b.ended {
		b.sid = b.t.tr.begin("wire.body_read", b.info.span, b.info.req)
	}
	n, err := b.ReadCloser.Read(p)
	b.bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *spanBody) finish() {
	if b.ended {
		return
	}
	b.ended = true
	b.t.tr.end(b.sid)
	b.t.mu.Lock()
	b.t.sizes = append(b.t.sizes, float64(b.bytes))
	b.t.mu.Unlock()
}
