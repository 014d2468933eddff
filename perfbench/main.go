// Command perfbench is the repository's benchmark: one workload, one seed,
// one run. It generates the workload's inputs from the seed, drives the
// layers through their public functions (serve, shortcut, mst, sssp,
// gateway, load), checks every answer it times, and prints each metric by
// name with its unit and sample count, then one JSON result line.
//
//	go build -o perfbench . && ./perfbench -workload sssp -seed 1 -seconds 15 -trace 0
//
// With -trace 1 the same workload runs with spans around every call into a
// layer and with the serving stack's obs registries attached, and the
// result line carries the per-layer metrics instead; its end-to-end
// numbers are printed beside them as the tracing overhead. Any failed
// check exits non-zero without a result line. Metrics too seed- or
// host-sensitive to hold a regression bound are printed as "ungated" lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/load"
	"repro/internal/serve"
)

// workload is one set of inputs and traffic. Every workload runs every
// phase, so every metric is measured on each; the workload picks the
// fixture and how hard the open loops push.
type workload struct {
	name            string
	fixture         func(rng *rand.Rand) (*fixture, error)
	chainLen        int     // ApplyDelta repairs in the delta chain
	extraPartitions int     // further Voronoi partitions whose c + d joins congestion_plus_dilation
	rate            float64 // library open-loop sssp queries/s
	wireRate        float64 // wire open-loop queries/s
	swapRate        float64 // swap open-loop queries/s
	updateRate      float64 // hot swaps/s in the swap open loop
	// Shares of --seconds for the wire open loop and the swap open loop
	// (0 skips it); the other phases' shares are constants.
	wireShare, swapShare float64
}

var ssspOnly = load.Mix{SSSP: 1}

var workloads = []*workload{
	{
		// The paper's constant-diameter family at the size where the
		// Borůvka/partition layer dominates the build; the repair chain and
		// hot swaps racing the reads exercise the write path.
		name:     "build",
		fixture:  func(rng *rand.Rand) (*fixture, error) { return clusterChainFixture(32000, rng) },
		chainLen: 16, extraPartitions: 8,
		rate: 1000, wireRate: 25, swapRate: 100, updateRate: 4,
		wireShare: 0.3, swapShare: 0.2,
	},
	{
		// Read-only serving on a dense low-diameter graph whose build is
		// half exact dilation: warm walks, batch kernels and the JSON wire.
		// Its repairs take seconds each, so it runs no swap phase.
		name:     "sssp",
		fixture:  func(rng *rand.Rand) (*fixture, error) { return bridgeFreeERFixture(4000, 0.01, rng) },
		chainLen: 3,
		rate:     4000, wireRate: 100,
		wireShare: 0.5,
	},
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// run is one invocation's state.
type run struct {
	wl      *workload
	seed    int64
	seconds float64
	tr      *tracer // nil unless -trace 1
	fx      *fixture
	snap    *serve.Snapshot
	tmpDir  string

	e2e, perLayer, ungated []metric
	attempted, failed      int
}

func (r *run) put(name string, v float64, unit string, n int) {
	r.e2e = append(r.e2e, metric{name, v, unit, n})
}

// note records a metric printed for the reader but left out of the result
// line.
func (r *run) note(name string, v float64, unit string, n int) {
	r.ungated = append(r.ungated, metric{name, v, unit, n})
}

// layer records a per-layer metric; the untraced run skips them.
func (r *run) layer(name string, v float64, unit string, n int) {
	if r.tr != nil {
		r.perLayer = append(r.perLayer, metric{name, v, unit, n})
	}
}

func (r *run) info(format string, args ...any) {
	fmt.Printf("info "+format+"\n", args...)
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload: build or sssp")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 15, "seconds of measured traffic")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	// A run must end within 180 s; fail loudly rather than be killed.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})
	defer watchdog.Stop()

	r := &run{wl: wl, seed: *seed, seconds: *seconds}
	if *trace == 1 {
		r.tr = newTracer()
	}
	tmp, err := os.MkdirTemp(".", ".perfbench-tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	r.tmpDir = tmp

	fmt.Printf("perfbench workload=%s seed=%d seconds=%v trace=%d\n", wl.name, *seed, *seconds, *trace)
	fp, _ := json.Marshal(fingerprint(wl.name, *seed))
	fmt.Printf("fingerprint %s\n", fp)
	if err := r.execute(); err != nil {
		return err
	}

	out := r.e2e
	label := "metric"
	if r.tr != nil {
		for _, m := range r.e2e {
			fmt.Printf("traced-e2e %s %.6g %s n=%d\n", m.name, m.value, m.unit, m.n)
		}
		out, label = r.perLayer, "layer"
		path := filepath.Join(".perfbench-spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		spans := r.tr.closed()
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Printf("info spans=%d written to %s\n", len(spans), path)
	}
	for _, m := range r.ungated {
		fmt.Printf("ungated %s %.6g %s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	res := map[string]any{"correct": true, "attempted": r.attempted, "failed": r.failed}
	metrics := make(map[string]any, len(out))
	for _, m := range out {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		fmt.Printf("%s %s %.6g %s n=%d\n", label, m.name, m.value, m.unit, m.n)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	res["metrics"] = metrics
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fingerprint identifies the host and build a result came from.
func fingerprint(workload string, seed int64) map[string]any {
	fp := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		// Builds outside a repository carry no vcs stamp.
		"vcs.revision": "unknown",
		"vcs.modified": "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				fp[s.Key] = s.Value
			}
		}
	}
	return fp
}

// execute builds the fixture and the snapshot, then measures.
func (r *run) execute() error {
	var err error
	r.fx, err = r.wl.fixture(rand.New(rand.NewSource(r.seed)))
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	r.info("fixture n=%d m=%d parts=%d", r.fx.g.NumNodes(), r.fx.g.NumEdges(), len(r.fx.parts))
	if err := r.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if r.tr != nil {
		if err := r.replayBuild(); err != nil {
			return err
		}
		r.buildLayers()
	}
	roots := zipfRoots(r.fx.g.NumNodes(), 1<<14, rand.New(rand.NewSource(r.seed*31+3)))
	if err := r.measure(roots); err != nil {
		return err
	}
	sort.SliceStable(r.perLayer, func(i, j int) bool { return r.perLayer[i].name < r.perLayer[j].name })
	return nil
}

// buildLayers turns the replay's stage spans into per-layer metrics.
// build.unattributed_ms is the replay's wall time not covered by a stage;
// the gap between the replay and this run's setup_s is printed as the
// tracing and replay overhead.
func (r *run) buildLayers() {
	spans := r.tr.closed()
	sum := 0.0
	for _, st := range []string{"shortcut.partition", "shortcut.sample", "shortcut.dilation", "mst.distributed", "sssp.tree_index"} {
		v := durationsMs(spans, st)[0]
		sum += v
		r.layer(st+"_ms", v, "ms", 1)
	}
	replay := durationsMs(spans, "build.replay")[0]
	r.layer("build.unattributed_ms", replay-sum, "ms", 1)
	for _, m := range r.e2e {
		if m.name == "setup_s" {
			r.info("build replay %.6g ms = stages %.6g ms + unattributed %.6g ms; setup_s %.6g ms - replay = %.6g ms tracing and replay overhead",
				replay, sum, replay-sum, m.value*1000, m.value*1000-replay)
		}
	}
}

var kinds = []string{"sssp", "mst", "mincut", "twoecss", "quality"}
