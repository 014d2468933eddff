package load

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reproerr"
	"repro/internal/serve"
)

// Runner executes one Schedule against one Backend, open-loop.
type Runner struct {
	Schedule *Schedule
	Backend  Backend
	// Store, when set, is the hot-swap surface the scheduled updates drive
	// (serve.ApplyDelta + Store.Swap at each update's instant, racing the
	// query stream) and the base of the generation chain the torn-answer
	// check verifies against. nil disables updates and the check — the
	// external-lcsserve case, where the remote snapshot is out of reach.
	Store *serve.Store
}

// Result is one scenario's outcome: offered-vs-delivered accounting, the
// latency and queue-wait histograms, and the torn-answer verdict.
type Result struct {
	Backend string
	// Offered is the scheduled arrival count; Dispatched the arrivals that
	// acquired an in-flight slot; Overflow the arrivals dropped at the
	// MaxInFlight cap (counted, never blocked — blocking would close the
	// loop and reintroduce coordinated omission).
	Offered, Dispatched, Overflow int
	// Delivered..Failed classify the dispatched queries' outcomes.
	Delivered, Shed, DeadlineExceeded, Canceled, Failed int64
	// UpdatesApplied counts completed hot swaps; Generations the snapshot
	// chain length (updates + 1).
	UpdatesApplied, Generations int
	// Checked/Torn are the attribution counts: every checked answer must
	// match at least one generation's reference (Torn == 0). TornChecked is
	// false when no Store was attached (external wire target).
	Checked, Torn int
	TornChecked   bool
	Elapsed       time.Duration
	// OfferedRate is the scheduled rate over the configured duration;
	// DeliveredRate the delivered count over the actual elapsed time — the
	// gap is saturation (shed, deadline, overflow).
	OfferedRate, DeliveredRate float64
	// Latency is delivered-query latency measured from the SCHEDULED
	// arrival (so dispatch lag counts against the server, the open-loop
	// convention); QueueWait is the dispatch lag alone.
	Latency, QueueWait obs.HistogramSnapshot
	// FailureSample holds up to four distinct failure messages for triage.
	FailureSample []string
}

// ssspObs is one delivered sssp answer's attribution material.
type ssspObs struct {
	root graph.NodeID
	hash uint64
}

// Run executes the schedule. The returned Result is valid even when err is
// non-nil for a context cancellation — it then covers the portion that ran.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	const op = "load.run"
	if r.Schedule == nil || r.Backend == nil {
		return nil, reproerr.Invalid(op, "Schedule and Backend are required")
	}
	sched := r.Schedule
	p := sched.Params.withDefaults()
	if len(sched.Updates) > 0 && r.Store == nil {
		return nil, reproerr.Invalid(op, "scheduled updates require a Store to swap against")
	}
	res := &Result{Backend: r.Backend.Name(), Offered: len(sched.Events)}

	var latHist, qwHist obs.Histogram
	var delivered, shed, deadline, canceled, failed atomic.Int64
	var obsMu sync.Mutex
	var ssspSeen []ssspObs
	var mstHeads []*graph.EdgeID
	var mstEdgeHashes []uint64
	var failures []string

	var chain []*serve.Snapshot
	if r.Store != nil {
		chain = append(chain, r.Store.Snapshot())
	}

	start := time.Now()

	// Updater: applies each scheduled delta to the chain tip at its instant
	// and swaps it in under the live query stream. Single writer — chain
	// needs no lock (the verification below reads it only after updWg.Wait).
	var updWg sync.WaitGroup
	var updErr error
	if len(sched.Updates) > 0 {
		updWg.Add(1)
		go func() {
			defer updWg.Done()
			timer := newStoppedTimer()
			defer timer.Stop()
			for i, u := range sched.Updates {
				if !sleepUntil(ctx, timer, start, u.At) {
					return
				}
				next, err := serve.ApplyDelta(ctx, chain[len(chain)-1], u.Delta, serve.DeltaOptions{})
				if err != nil {
					updErr = fmt.Errorf("update %d: %w", i, err)
					return
				}
				r.Store.Swap(next)
				chain = append(chain, next)
			}
		}()
	}

	// Dispatcher: fire each arrival at its scheduled instant regardless of
	// outstanding work, bounded only by the MaxInFlight safety cap.
	sem := make(chan struct{}, p.MaxInFlight)
	var qWg sync.WaitGroup
	timer := newStoppedTimer()
dispatch:
	for _, ev := range sched.Events {
		if !sleepUntil(ctx, timer, start, ev.At) {
			break dispatch
		}
		select {
		case sem <- struct{}{}:
		default:
			res.Overflow++
			continue
		}
		res.Dispatched++
		wait := time.Since(start) - ev.At
		qWg.Add(1)
		go func(ev Event, wait time.Duration) {
			defer func() { <-sem; qWg.Done() }()
			qctx, cancel := context.WithTimeout(ctx, p.Timeout)
			comp, err := r.Backend.Do(qctx, ev.Query)
			cancel()
			if err != nil {
				switch kind := reproerr.KindOf(err); {
				case kind == reproerr.KindBudgetExceeded:
					shed.Add(1)
				case kind == reproerr.KindDeadline || errors.Is(err, context.DeadlineExceeded):
					deadline.Add(1)
				case kind == reproerr.KindCanceled || errors.Is(err, context.Canceled):
					canceled.Add(1)
				default:
					failed.Add(1)
					obsMu.Lock()
					if len(failures) < 4 {
						failures = append(failures, err.Error())
					}
					obsMu.Unlock()
				}
				return
			}
			// Latency from the scheduled arrival, not the dispatch — the
			// coordinated-omission-free measurement this package exists for.
			lat := time.Since(start) - ev.At
			delivered.Add(1)
			latHist.Observe(int64(lat))
			if wait < 0 {
				wait = 0
			}
			qwHist.Observe(int64(wait))
			switch {
			case comp.Dist != nil:
				h := hashDist(comp.Dist)
				obsMu.Lock()
				ssspSeen = append(ssspSeen, ssspObs{comp.Root, h})
				obsMu.Unlock()
			case comp.TreeHead != nil:
				obsMu.Lock()
				mstHeads = append(mstHeads, comp.TreeHead)
				obsMu.Unlock()
			case comp.TreeEdges != nil:
				h := hashEdges(comp.TreeEdges)
				obsMu.Lock()
				mstEdgeHashes = append(mstEdgeHashes, h)
				obsMu.Unlock()
			}
		}(ev, wait)
	}
	qWg.Wait()
	updWg.Wait()
	timer.Stop()
	res.Elapsed = time.Since(start)
	if updErr != nil {
		return nil, fmt.Errorf("%s: %w", op, updErr)
	}

	res.Delivered = delivered.Load()
	res.Shed = shed.Load()
	res.DeadlineExceeded = deadline.Load()
	res.Canceled = canceled.Load()
	res.Failed = failed.Load()
	res.FailureSample = failures
	res.OfferedRate = float64(res.Offered) / p.Duration.Seconds()
	if res.Elapsed > 0 {
		res.DeliveredRate = float64(res.Delivered) / res.Elapsed.Seconds()
	}
	res.Latency = latHist.Snapshot()
	res.QueueWait = qwHist.Snapshot()
	if r.Store != nil {
		res.UpdatesApplied = len(chain) - 1
		res.Generations = len(chain)
		res.TornChecked = true
		verifyTorn(chain, ssspSeen, mstHeads, mstEdgeHashes, res)
	}
	if ctx.Err() != nil {
		return res, reproerr.FromContext(op, ctx.Err())
	}
	return res, nil
}

// verifyTorn attributes every captured answer to the generation chain: a
// sssp row must hash to some generation's tree distances for its root, an
// MST answer must be (by slice identity or edge-id hash) some generation's
// tree. An answer matching no generation mixed state from two epochs — the
// torn-answer failure the epoch protocol exists to prevent.
func verifyTorn(chain []*serve.Snapshot, sssp []ssspObs, heads []*graph.EdgeID, edgeHashes []uint64, res *Result) {
	headSet := make(map[*graph.EdgeID]struct{}, len(chain))
	treeHashes := make(map[uint64]struct{}, len(chain))
	for _, sn := range chain {
		t := sn.Tree()
		if len(t) > 0 {
			headSet[&t[0]] = struct{}{}
			treeHashes[hashEdges(t)] = struct{}{}
		}
	}
	// Reference rows are computed lazily per distinct root: one tree walk
	// per (root × generation) actually observed, not per answer.
	rootRefs := make(map[graph.NodeID]map[uint64]struct{})
	for _, o := range sssp {
		res.Checked++
		refs, ok := rootRefs[o.root]
		if !ok {
			refs = make(map[uint64]struct{}, len(chain))
			for _, sn := range chain {
				refs[hashDist(treeDist(sn, o.root))] = struct{}{}
			}
			rootRefs[o.root] = refs
		}
		if _, ok := refs[o.hash]; !ok {
			res.Torn++
		}
	}
	for _, h := range heads {
		res.Checked++
		if _, ok := headSet[h]; !ok {
			res.Torn++
		}
	}
	for _, h := range edgeHashes {
		res.Checked++
		if _, ok := treeHashes[h]; !ok {
			res.Torn++
		}
	}
}

// treeDist walks a snapshot's shortcut-MST from src accumulating weights —
// the exact row the warm sssp path serves (pinned by the serve tests), so
// hashing it reproduces a generation's reference answer bit-for-bit.
func treeDist(sn *serve.Snapshot, src graph.NodeID) []float64 {
	g, w, tree := sn.Graph(), sn.Weights(), sn.Tree()
	n := g.NumNodes()
	type arc struct {
		to graph.NodeID
		w  float64
	}
	adj := make([][]arc, n)
	for _, e := range tree {
		u, v := g.EdgeEndpoints(e)
		adj[u] = append(adj[u], arc{v, w[e]})
		adj[v] = append(adj[v], arc{u, w[e]})
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	queue := []graph.NodeID{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range adj[u] {
			if math.IsInf(dist[a.to], 1) {
				dist[a.to] = dist[u] + a.w
				queue = append(queue, a.to)
			}
		}
	}
	return dist
}

// hashDist is FNV-1a over the row's IEEE-754 bits: answers that differ in
// any bit of any distance hash apart, which is the wire contract's exactness
// (DistVector round-trips bit-identically).
func hashDist(dist []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, d := range dist {
		b := math.Float64bits(d)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// hashEdges is FNV-1a over an MST answer's edge-id sequence.
func hashEdges(edges []graph.EdgeID) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range edges {
		b := uint64(uint32(e))
		for s := 0; s < 32; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// newStoppedTimer returns a drained timer ready for Reset.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// sleepUntil blocks until `at` on the run clock (or returns immediately if
// already past). Returns false when ctx fired first.
func sleepUntil(ctx context.Context, timer *time.Timer, start time.Time, at time.Duration) bool {
	d := at - time.Since(start)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer.Reset(d)
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		if !timer.Stop() {
			<-timer.C
		}
		return false
	}
}
