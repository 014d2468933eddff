package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/gen"
	"repro/internal/mst"
	"repro/internal/serve"
	"repro/internal/shortcut"
	"repro/internal/sssp"
)

// logFactor and dilationCutoff are NewSnapshot's settings in every
// experiment of the repository (cutoff 0 selects 3000).
const (
	logFactor      = 0.3
	dilationCutoff = 3000
)

// snapshotOptions are set-up build rep's options; each rep draws its own
// shortcut sampling and Borůvka randomness from the seed.
func (r *run) snapshotOptions(rep int) serve.SnapshotOptions {
	return serve.SnapshotOptions{
		Rng:       rand.New(rand.NewSource(r.seed*7919 + 17 + int64(rep)*104723)),
		Diameter:  r.fx.diameter,
		LogFactor: logFactor,
	}
}

// setup builds the snapshot setupReps times from the same fixture, each
// build with its own randomness, checks each tree against Kruskal and keeps
// the last. setup_s is the median wall time of NewSnapshot; the round
// figures are means over the builds. congestion_plus_dilation is the mean
// c + d over the builds and the workload's further partitions: c + d is a
// sum of two maxima, a small integer that one partition draw moves by a
// sixth.
func (r *run) setup() error {
	fx := r.fx
	var times, cd, rounds, phases, msgs []float64
	for i := 0; i < setupReps; i++ {
		r.snap = nil
		runtime.GC()
		sid := r.tr.begin("build.new_snapshot", -1, 0)
		t0 := time.Now()
		sn, err := serve.NewSnapshot(fx.g, fx.w, fx.parts, r.snapshotOptions(i))
		d := time.Since(t0)
		r.tr.end(sid)
		if err != nil {
			return fmt.Errorf("NewSnapshot: %w", err)
		}
		if err := checkKruskal(fmt.Sprintf("built snapshot %d", i+1), sn); err != nil {
			return err
		}
		times = append(times, d.Seconds())
		cd = append(cd, float64(sn.Quality().Sum()))
		rounds = append(rounds, float64(sn.Cost().Rounds))
		phases = append(phases, float64(sn.Phases()))
		msgs = append(msgs, float64(sn.Cost().Messages))
		r.snap = sn
	}
	more, err := r.partitionQualities(r.wl.extraPartitions)
	if err != nil {
		return fmt.Errorf("partition quality: %w", err)
	}
	cd = append(cd, more...)
	runtime.GC()
	runtime.GC()
	var mstats runtime.MemStats
	runtime.ReadMemStats(&mstats)

	r.put("setup_s", median(times), "s", len(times))
	r.put("heap_mb", float64(mstats.HeapAlloc)/1e6, "MB", 1)
	r.put("congestion_plus_dilation", mean(cd), "edges", len(cd))
	r.note("sim_rounds", mean(rounds), "rounds", len(rounds))
	r.layer("mst.sim_rounds", mean(rounds), "count", len(rounds))
	r.layer("mst.phases", mean(phases), "count", len(phases))
	r.layer("mst.sim_messages", mean(msgs), "count", len(msgs))
	return nil
}

// partitionQualities returns c + d of shortcuts built, through the shortcut
// layer's public functions, on k further Voronoi partitions of the fixture
// graph, each with its own sampling seed.
func (r *run) partitionQualities(k int) ([]float64, error) {
	fx := r.fx
	rng := rand.New(rand.NewSource(r.seed*6271 + 3))
	opts := shortcut.Options{Diameter: fx.buildDiameter(), LogFactor: logFactor}
	var out []float64
	for i := 0; i < k; i++ {
		parts, err := gen.VoronoiParts(fx.g, numParts, rng)
		if err != nil {
			return nil, err
		}
		p, err := shortcut.NewPartition(fx.g, parts)
		if err != nil {
			return nil, err
		}
		s, err := shortcut.BuildSeeded(fx.g, p, opts, rng.Uint64())
		if err != nil {
			return nil, err
		}
		partDil, err := s.PartDilations(context.Background(), dilationCutoff)
		if err != nil {
			return nil, err
		}
		out = append(out, float64(shortcut.AggregateQuality(partDil, s.Congestion()).Sum()))
	}
	return out, nil
}

// replayBuild re-runs NewSnapshot's stages through their public functions,
// in its order and with its rng draws, under one span each, and asserts
// the replay reproduces the snapshot's tree and quality. It runs only in
// the traced run: NewSnapshot itself exposes no stage boundaries.
func (r *run) replayBuild() error {
	fx := r.fx
	opts := r.snapshotOptions(setupReps - 1)
	root := r.tr.begin("build.replay", -1, 0)
	defer r.tr.end(root)
	stage := func(name string, f func() error) error {
		id := r.tr.begin(name, root, 0)
		err := f()
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		return nil
	}
	d := fx.buildDiameter()
	var (
		p       *shortcut.Partition
		s       *shortcut.Shortcuts
		quality shortcut.Quality
		mres    *mst.DistResult
	)
	err := stage("shortcut.partition", func() (err error) {
		p, err = shortcut.NewPartition(fx.g, fx.parts)
		return err
	})
	if err == nil {
		err = stage("shortcut.sample", func() (err error) {
			s, err = shortcut.BuildSeeded(fx.g, p, shortcut.Options{Diameter: d, LogFactor: opts.LogFactor}, opts.Rng.Uint64())
			return err
		})
	}
	if err == nil {
		err = stage("shortcut.dilation", func() error {
			partDil, err := s.PartDilations(context.Background(), dilationCutoff)
			quality = shortcut.AggregateQuality(partDil, s.Congestion())
			return err
		})
	}
	if err == nil {
		err = stage("mst.distributed", func() (err error) {
			mres, err = mst.Distributed(fx.g, fx.w, mst.DistOptions{Rng: opts.Rng, Diameter: d, LogFactor: opts.LogFactor})
			return err
		})
	}
	if err == nil {
		err = stage("sssp.tree_index", func() error {
			_, err := sssp.NewTreeIndex(fx.g, fx.w, mres.Tree)
			return err
		})
	}
	if err != nil {
		return err
	}
	if quality != r.snap.Quality() {
		return fmt.Errorf("replay quality %v != snapshot quality %v", quality, r.snap.Quality())
	}
	if !slices.Equal(mres.Tree, r.snap.Tree()) {
		return fmt.Errorf("replay tree differs from the snapshot's")
	}
	return nil
}

// checkKruskal asserts the snapshot's shortcut-MST is the minimum spanning
// tree Kruskal finds on the snapshot's own graph.
func checkKruskal(what string, sn *serve.Snapshot) error {
	want, err := mst.Kruskal(sn.Graph(), sn.Weights())
	if err != nil {
		return fmt.Errorf("%s: kruskal: %w", what, err)
	}
	got := slices.Clone(sn.Tree())
	slices.Sort(got)
	want = slices.Clone(want)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s: tree (%d edges) differs from Kruskal's (%d edges)", what, len(got), len(want))
	}
	return nil
}

// sameDist asserts two distance rows are bit-identical.
func sameDist(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("distance row has %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("distance %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
