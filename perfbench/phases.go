package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/serve"
)

// rounds is how many times the measured phases take turns. A shared host
// slows down for seconds at a time; spreading every metric's samples over
// the whole run keeps one slow spell from setting any single metric.
const rounds = 4

// closedWindows is the closed-loop windows per round, per loop.
const closedWindows = 2

// setupReps is how many times NewSnapshot runs; coldReps is how many
// snapshot writes and cold starts are timed; chainEdges is how many edges
// each delta of the repair chain inserts.
const (
	setupReps  = 3
	coldReps   = 24
	chainEdges = 4
)

// mincutsPerRound is how many mincut probes each round times.
const mincutsPerRound = 3

// Shares of --seconds: the library open loop and the closed-loop single
// and batch capacity phases.
const (
	olShare    = 0.3
	capShare   = 0.1
	batchShare = 0.1
)

// phases holds the measured phases' servers and samples across rounds.
type phases struct {
	r     *run
	roots []graph.NodeID

	// persistence and repair
	path               string
	built              *serve.Server
	writes, cold       []float64
	loads, firsts      []float64
	deltas             []graph.Delta
	cur                *serve.Snapshot
	repairs            []float64
	touched, rechecked int

	// traffic phases
	regOL, regCap        *obs.Registry
	regBatch, regWire    *obs.Registry
	regSwap, regProbe    *obs.Registry
	srvOL, srvCap        *serve.Server
	srvBatch, srvProbe   *serve.Server
	ws                   *wireServer
	ol, wire, swaps      loopTotals
	capRates, batchRates []float64
	capN, batchN         int
	probeMs              map[string][]float64
	partMs               [][]float64 // quality probe times per part
}

func (r *run) serverOptions(reg *obs.Registry) serve.ServerOptions {
	return serve.ServerOptions{Seed: 1, Metrics: reg, TraceDepth: traceDepth}
}

// measure runs the measured phases: persistence, repair, the library open
// loop, closed-loop single and batch capacity, the wire open loop, the
// swap open loop and the heavy-kind probes, rounds times in turn.
func (r *run) measure(roots []graph.NodeID) error {
	p, err := r.preparePhases(roots)
	if err != nil {
		return err
	}
	defer os.Remove(p.path)
	for round := 0; round < rounds; round++ {
		if err := p.round(round); err != nil {
			p.ws.stop()
			return err
		}
	}
	if err := p.ws.stop(); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return p.finish()
}

func (r *run) preparePhases(roots []graph.NodeID) (*phases, error) {
	wl := r.wl
	p := &phases{r: r, roots: roots, cur: r.snap, probeMs: map[string][]float64{}}
	p.partMs = make([][]float64, r.snap.Partition().NumParts())

	p.path = filepath.Join(r.tmpDir, "snapshot.lcs")
	p.built = serve.NewServer(r.snap, serve.ServerOptions{})

	var err error
	p.deltas, err = deltaChain(r.fx.g, wl.chainLen, chainEdges, rand.New(rand.NewSource(r.seed*104729+5)))
	if err != nil {
		return nil, err
	}

	p.regOL, p.regCap, p.regBatch = r.registry(), r.registry(), r.registry()
	p.regWire, p.regSwap, p.regProbe = r.registry(), r.registry(), r.registry()
	p.srvOL = serve.NewServer(r.snap, r.serverOptions(p.regOL))
	p.srvCap = serve.NewServer(r.snap, r.serverOptions(p.regCap))
	p.srvBatch = serve.NewServer(r.snap, r.serverOptions(p.regBatch))
	p.srvProbe = serve.NewServer(r.snap, r.serverOptions(p.regProbe))
	if err := checkBatch(p.srvBatch, roots[:64]); err != nil {
		return nil, fmt.Errorf("batch check: %w", err)
	}
	// The wire path serves through a store, as lcsserve does.
	srvWire := serve.NewStoreServer(serve.NewStoreWith(r.snap, serve.StoreOptions{Metrics: p.regWire}), r.serverOptions(p.regWire))
	if p.ws, err = startWire(srvWire, p.regWire, r.tr, runtime.NumCPU()); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}

	return p, nil
}

// share returns round k's part [lo, hi) of n items split over the rounds.
func share(n, k int) (lo, hi int) { return k * n / rounds, (k + 1) * n / rounds }

// round runs each phase's share of one round.
func (p *phases) round(k int) error {
	r, wl := p.r, p.r.wl
	if err := p.coldStarts(share(coldReps, k)); err != nil {
		return fmt.Errorf("cold start: %w", err)
	}
	lo, hi := share(wl.chainLen, k)
	if err := p.repair(p.deltas[lo:hi]); err != nil {
		return fmt.Errorf("repair: %w", err)
	}

	salt := int64(10 * k)
	sched, err := r.schedule(wl.rate, olShare/rounds, 0, salt+1)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := r.openLoop(&p.ol, "serve.do", int64(k)<<40, &load.LibraryBackend{Srv: p.srvOL}, nil, sched, 0); err != nil {
		return fmt.Errorf("library open loop: %w", err)
	}

	runtime.GC()
	first := k * len(p.roots) / rounds
	rates, n, err := r.closedLoop(p.srvCap, p.roots, first, 1, closedWindows, r.phaseDur(capShare/rounds))
	if err != nil {
		return fmt.Errorf("capacity: %w", err)
	}
	p.capRates, p.capN = append(p.capRates, rates...), p.capN+n
	runtime.GC()
	rates, n, err = r.closedLoop(p.srvBatch, p.roots, first, 64, closedWindows, r.phaseDur(batchShare/rounds))
	if err != nil {
		return fmt.Errorf("batch capacity: %w", err)
	}
	p.batchRates, p.batchN = append(p.batchRates, rates...), p.batchN+n

	sched, err = r.schedule(wl.wireRate, wl.wireShare/rounds, 0, salt+2)
	if err != nil {
		return err
	}
	runtime.GC()
	backend := load.NewWireBackend(p.ws.addr, p.ws.client)
	if err := r.openLoop(&p.wire, "wire.do", int64(k)<<40|1<<32, backend, nil, sched, 32/rounds); err != nil {
		return fmt.Errorf("wire open loop: %w", err)
	}

	if wl.swapShare > 0 {
		// Each round races the schedule's updates from a fresh store at the
		// base snapshot: the deltas were drawn against its graph.
		sched, err = r.schedule(wl.swapRate, wl.swapShare/rounds, wl.updateRate, salt+3)
		if err != nil {
			return err
		}
		store := serve.NewStoreWith(r.snap, serve.StoreOptions{Metrics: p.regSwap})
		srv := serve.NewStoreServer(store, r.serverOptions(p.regSwap))
		runtime.GC()
		if err := r.openLoop(&p.swaps, "swap.do", int64(k)<<40|2<<32, &load.LibraryBackend{Srv: srv}, store, sched, 0); err != nil {
			return fmt.Errorf("swap open loop: %w", err)
		}
	}

	// Heavy kinds, one at a time on the idle probe server: quality on every
	// part with an mst beside each, mincutsPerRound mincuts, and twoecss
	// where the fixture is bridge-free.
	var probes []serve.Query
	for _, part := range rand.New(rand.NewSource(r.seed*613 + int64(k))).Perm(len(p.partMs)) {
		probes = append(probes, serve.QualityQuery{Part: part}, serve.MSTQuery{})
	}
	for i := 0; i < mincutsPerRound; i++ {
		probes = append(probes, serve.MinCutQuery{})
	}
	if r.fx.bridgeFree {
		probes = append(probes, serve.TwoECSSQuery{})
	}
	for _, q := range probes {
		if err := p.probe(q); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

// coldStarts times snapshot writes and cold starts lo..hi−1. Each writes
// the file afresh, so where its pages land in memory is drawn anew for
// every sample rather than once per run, then times a verified mmap
// LoadSnapshot, NewServer and the first SSSP answer, checked against the
// built snapshot.
func (p *phases) coldStarts(lo, hi int) error {
	r := p.r
	for i := lo; i < hi; i++ {
		root := p.roots[i%len(p.roots)]
		want, err := p.built.Serve(serve.SSSPQuery{Source: root})
		if err != nil {
			return fmt.Errorf("built sssp: %w", err)
		}
		runtime.GC()
		wid := r.tr.begin("persist.write", -1, 0)
		t0 := time.Now()
		if err := serve.WriteSnapshotFile(p.path, r.snap); err != nil {
			return err
		}
		p.writes = append(p.writes, ms(time.Since(t0)))
		r.tr.end(wid)
		runtime.GC()
		cid := r.tr.begin("persist.cold_start", -1, 0)
		lid := r.tr.begin("persist.load", cid, 0)
		t0 = time.Now()
		l, err := serve.LoadSnapshot(p.path, serve.LoadOptions{})
		t1 := time.Now()
		r.tr.end(lid)
		if err != nil {
			return err
		}
		fid := r.tr.begin("persist.first_answer", cid, 0)
		a, err := serve.NewServer(l, serve.ServerOptions{}).Serve(serve.SSSPQuery{Source: root})
		t2 := time.Now()
		r.tr.end(fid)
		r.tr.end(cid)
		if err != nil {
			l.Close()
			return fmt.Errorf("loaded sssp: %w", err)
		}
		if !l.Mapped() {
			l.Close()
			return fmt.Errorf("snapshot was not loaded through mmap")
		}
		err = sameDist(a.(*serve.SSSPAnswer).Dist, want.(*serve.SSSPAnswer).Dist)
		if err == nil && i == 0 {
			err = checkKruskal("loaded snapshot", l)
		}
		l.Close()
		if err != nil {
			return fmt.Errorf("loaded snapshot: %w", err)
		}
		p.loads = append(p.loads, ms(t1.Sub(t0)))
		p.firsts = append(p.firsts, ms(t2.Sub(t1)))
		p.cold = append(p.cold, ms(t2.Sub(t0)))
	}
	return nil
}

// repair applies the next deltas of the chain with ApplyDelta, timing
// each and checking every repaired tree against Kruskal on its graph.
func (p *phases) repair(deltas []graph.Delta) error {
	r := p.r
	for _, d := range deltas {
		runtime.GC()
		sid := r.tr.begin("repair.apply_delta", -1, 0)
		t0 := time.Now()
		next, err := serve.ApplyDelta(context.Background(), p.cur, d, serve.DeltaOptions{})
		dt := time.Since(t0)
		r.tr.end(sid)
		r.attempted++
		if err != nil {
			r.failed++
			return fmt.Errorf("delta %d: %w", len(p.repairs)+1, err)
		}
		if err := checkKruskal(fmt.Sprintf("repaired snapshot %d", len(p.repairs)+1), next); err != nil {
			return err
		}
		info := next.Repair()
		p.touched += len(info.Touched)
		p.rechecked += info.Rechecked
		p.repairs = append(p.repairs, ms(dt))
		p.cur = next
	}
	return nil
}

// probe times one heavy query on the otherwise idle probe server.
func (p *phases) probe(q serve.Query) error {
	runtime.GC()
	t0 := time.Now()
	a, err := p.srvProbe.Serve(q)
	d := time.Since(t0)
	p.r.attempted++
	if err != nil {
		p.r.failed++
		return fmt.Errorf("%s: %w", kindName(q), err)
	}
	if m, ok := a.(*serve.MSTAnswer); ok && &m.Tree[0] != &p.r.snap.Tree()[0] {
		return fmt.Errorf("mst answer is not the snapshot's tree")
	}
	p.probeMs[kindName(q)] = append(p.probeMs[kindName(q)], ms(d))
	if qq, ok := q.(serve.QualityQuery); ok {
		p.partMs[qq.Part] = append(p.partMs[qq.Part], ms(d))
	}
	return nil
}

// finish checks the pooled wire answers and turns the samples into
// metrics.
func (p *phases) finish() error {
	r := p.r
	if len(p.wire.kept) == 0 {
		return fmt.Errorf("wire open loop delivered no sssp answer to check")
	}
	for _, c := range p.wire.kept {
		want, err := p.built.Serve(serve.SSSPQuery{Source: c.Root})
		if err != nil {
			return err
		}
		if err := sameDist(c.Dist, want.(*serve.SSSPAnswer).Dist); err != nil {
			return fmt.Errorf("wire answer for root %d differs from the library's: %w", c.Root, err)
		}
	}

	r.put("cold_start_ms", median(p.cold), "ms", len(p.cold))
	r.put("repair_p50_ms", median(p.repairs), "ms", len(p.repairs))
	ol, wire, swaps := &p.ol, &p.wire, &p.swaps
	lat := ol.latencies("sssp")
	r.put("sssp_p50_ms", quantile(lat, 0.5), "ms", len(lat))
	r.put("sssp_capacity_qps", median(p.capRates), "queries/s", p.capN)
	r.put("batch_roots_per_s", median(p.batchRates), "roots/s", p.batchN)
	wlat := wire.latencies("sssp")
	r.put("wire_sssp_p50_ms", quantile(wlat, 0.5), "ms", len(wlat))
	// A p99 of a few hundred wire answers, or of sub-millisecond walks on a
	// shared host, moves by more than any regression bound between runs.
	r.note("wire_sssp_p99_ms", quantile(wlat, 0.99), "ms", len(wlat))
	// Each part's quality time is its median over the rounds, so a slow
	// spell of the host in one round does not move it; the metric is the
	// median over parts.
	perPart := make([]float64, len(p.partMs))
	for i, xs := range p.partMs {
		perPart[i] = median(xs)
	}
	r.put("quality_p50_ms", median(perPart), "ms", len(p.probeMs["quality"]))
	r.put("mincut_p50_ms", median(p.probeMs["mincut"]), "ms", len(p.probeMs["mincut"]))

	r.note("sssp_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	offered := ol.offered + wire.offered + swaps.offered
	r.note("fail_frac", failFrac(offered, ol.delivered()+wire.delivered()+swaps.delivered()), "ratio", offered)
	r.info("library open loop: offered=%d delivered=%d overflow=%d", ol.offered, ol.delivered(), ol.overflow)
	r.info("wire open loop: offered=%d delivered=%d overflow=%d checked_bit_identical=%d",
		wire.offered, wire.delivered(), wire.overflow, len(wire.kept))
	if p.r.wl.swapShare > 0 {
		slat := swaps.latencies("sssp")
		r.info("swap open loop: offered=%d delivered=%d updates=%d torn=0 of %d checked sssp_p50_ms=%.4g sssp_p99_ms=%.4g",
			swaps.offered, swaps.delivered(), swaps.updates, swaps.checked, quantile(slat, 0.5), quantile(slat, 0.99))
	}
	if tw := p.probeMs["twoecss"]; len(tw) > 0 {
		r.note("twoecss_p50_ms", median(tw), "ms", len(tw))
	}
	lags := append(append(ol.lags(), wire.lags()...), swaps.lags()...)
	r.info("generator lag p50=%.4gms p99=%.4gms n=%d", quantile(lags, 0.5), quantile(lags, 0.99), len(lags))
	if r.tr == nil {
		return nil
	}

	st, err := os.Stat(p.path)
	if err != nil {
		return err
	}
	r.layer("persist.write_ms", median(p.writes), "ms", len(p.writes))
	r.layer("persist.snapshot_bytes", float64(st.Size()), "bytes", 1)
	r.layer("persist.load_ms", median(p.loads), "ms", len(p.loads))
	r.layer("persist.first_answer_ms", median(p.firsts), "ms", len(p.firsts))
	r.layer("repair.touched_parts_mean", float64(p.touched)/float64(len(p.repairs)), "parts", 1)
	r.layer("repair.rechecked_parts", float64(p.rechecked), "parts", 1)
	r.serveLayers(p.regOL, p.regCap, p.regBatch, p.regWire, p.regProbe, p.srvBatch)
	r.layer("load.gen_lag_p50_ms", quantile(lags, 0.5), "ms", len(lags))
	r.layer("load.gen_lag_p99_ms", quantile(lags, 0.99), "ms", len(lags))
	if r.wl.swapShare > 0 {
		// Only a workload with a swap phase has these; they are printed
		// where it ran instead of joining every workload's result line.
		r.note("store.swaps", float64(swaps.swaps), "count", 1)
		r.note("load.torn_checked", float64(swaps.checked), "answers", 1)
		r.note("load.generations", float64(swaps.generations), "count", 1)
	}
	r.wireLayers(p.regWire, p.ws)
	return nil
}
