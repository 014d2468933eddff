package main

import (
	"time"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/serve"
)

// registry returns a fresh obs registry in the traced run, nil otherwise:
// the untraced run measures the uninstrumented stack.
func (r *run) registry() *obs.Registry {
	if r.tr == nil {
		return nil
	}
	return obs.New()
}

func (r *run) phaseDur(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// schedule draws an sssp-only open-loop schedule (Zipf roots, Poisson
// arrivals, optional hot swaps) from the run's seed.
func (r *run) schedule(rate, share, updateRate float64, salt int64) (*load.Schedule, error) {
	return load.BuildSchedule(load.Params{
		Rate: rate, Duration: r.phaseDur(share), Zipf: zipfS, Mix: ssspOnly,
		UpdateRate: updateRate, Seed: r.seed*1_000_003 + salt,
	}, r.snap)
}

// serveLayers reads the serve layer's obs registries: per-kind queue wait
// and execution time from the exact per-query trace records of the
// library open loop and the probes, plus pool, kernel and coalescing
// counters.
func (r *run) serveLayers(regOL, regCap, regBatch, regWire, regProbe *obs.Registry, srvBatch *serve.Server) {
	waits, execs := map[string][]float64{}, map[string][]float64{}
	for _, reg := range []*obs.Registry{regOL, regProbe} {
		for _, t := range reg.Traces() {
			waits[t.Kind] = append(waits[t.Kind], float64(t.QueueWaitNs)/1e6)
			execs[t.Kind] = append(execs[t.Kind], float64(t.ExecNs)/1e6)
		}
	}
	for _, k := range kinds {
		w, e := waits[k], execs[k]
		if k == "twoecss" {
			// Only a bridge-free fixture answers twoecss, so it is printed
			// where it ran instead of joining every workload's result line.
			if len(w) > 0 {
				r.note("serve.twoecss.queue_wait_p99_ms", quantile(w, 0.99), "ms", len(w))
				r.note("serve.twoecss.exec_p50_ms", quantile(e, 0.5), "ms", len(e))
			}
			continue
		}
		r.layer("serve."+k+".queue_wait_p99_ms", quantile(w, 0.99), "ms", len(w))
		r.layer("serve."+k+".exec_p50_ms", quantile(e, 0.5), "ms", len(e))
	}
	r.layer("serve.executors_inflight_peak", float64(regOL.Gauge("lcs_serve_executors_inflight_peak").Value()), "executors", 1)
	for _, kn := range []string{"walk", "bitparallel", "scalar"} {
		total := int64(0)
		for _, reg := range []*obs.Registry{regOL, regCap, regBatch, regWire, regProbe} {
			total += reg.Counter("lcs_serve_kernel_runs_total", "kernel", kn).Value()
		}
		r.layer("serve.kernel_runs."+kn, float64(total), "runs", 1)
	}
	st := srvBatch.Stats()
	r.layer("serve.coalesce_ratio", float64(st.CoalesceOut)/float64(st.CoalesceIn), "tasks/root", int(st.CoalesceIn))
}

// wireLayers splits the wire phase's spans: the gateway middleware, the
// client transport's round trip and body read, and the Do span's self
// time (encoding the request and decoding the answer).
func (r *run) wireLayers(regWire *obs.Registry, ws *wireServer) {
	spans := r.tr.closed()
	h := durationsMs(spans, "gateway.handler")
	r.layer("gateway.handler_p50_ms", quantile(h, 0.5), "ms", len(h))
	// Admission itself never waits (a full pool sheds), so the wait an
	// admitted wire request sees is the executor checkout behind it.
	var waits []float64
	for _, t := range regWire.Traces() {
		waits = append(waits, float64(t.QueueWaitNs)/1e6)
	}
	r.layer("gateway.admit_wait_p99_ms", quantile(waits, 0.99), "ms", len(waits))
	rt := durationsMs(spans, "wire.roundtrip")
	r.layer("wire.roundtrip_p50_ms", quantile(rt, 0.5), "ms", len(rt))
	br := durationsMs(spans, "wire.body_read")
	r.layer("wire.body_read_p50_ms", quantile(br, 0.5), "ms", len(br))
	dec := selfMs(spans, "wire.do")
	r.layer("wire.client_decode_p50_ms", quantile(dec, 0.5), "ms", len(dec))
	ws.spans.mu.Lock()
	sizes := append([]float64(nil), ws.spans.sizes...)
	ws.spans.mu.Unlock()
	r.layer("wire.response_bytes_mean", mean(sizes), "bytes", len(sizes))
}
