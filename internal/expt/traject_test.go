package expt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

type decodedTrajectory struct {
	Trajectory []TrajectoryEntry `json:"trajectory"`
}

func readTrajectory(t *testing.T, path string) decodedTrajectory {
	t.Helper()
	var tf decodedTrajectory
	decodeFile(t, path, &tf)
	return tf
}

func decodeFile(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("file is not valid JSON: %v\n%s", err, raw)
	}
}

// compactJSON returns raw without insignificant whitespace.
func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func sampleTable(title string) *Table {
	tb := NewTable(title, "x", "y")
	tb.AddRow("1", "2")
	return tb
}

// TestAppendJSON pins the trajectory writer: a missing file starts at seq 0,
// repeated appends accumulate with increasing seq and preserved tags, and a
// legacy single-run {run, tables} file is upgraded to entry 0 in place.
func TestAppendJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")

	if err := AppendJSON(path, "first", RunInfo{Seed: 1}, []*Table{sampleTable("A")}); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSON(path, "second", RunInfo{Seed: 2}, []*Table{sampleTable("B")}); err != nil {
		t.Fatal(err)
	}
	tf := readTrajectory(t, path)
	if len(tf.Trajectory) != 2 {
		t.Fatalf("got %d entries, want 2", len(tf.Trajectory))
	}
	for i, want := range []struct {
		tag   string
		seed  int64
		title string
	}{{"first", 1, "A"}, {"second", 2, "B"}} {
		e := tf.Trajectory[i]
		if e.Seq != i || e.Tag != want.tag || e.Run.Seed != want.seed ||
			len(e.Tables) != 1 || e.Tables[0].Title != want.title {
			t.Fatalf("entry %d = %+v, want seq=%d tag=%q seed=%d title=%q", i, e, i, want.tag, want.seed, want.title)
		}
		if e.RecordedAt == "" {
			t.Fatalf("entry %d has no timestamp", i)
		}
	}
}

func TestAppendJSONLegacyUpgrade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_legacy.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(f, RunInfo{Seed: 7}, []*Table{sampleTable("old")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var legacy struct {
		Run json.RawMessage `json:"run"`
	}
	decodeFile(t, path, &legacy)

	if err := AppendJSON(path, "new", RunInfo{Seed: 8}, []*Table{sampleTable("new")}); err != nil {
		t.Fatal(err)
	}
	tf := readTrajectory(t, path)
	if len(tf.Trajectory) != 2 {
		t.Fatalf("got %d entries, want legacy + new", len(tf.Trajectory))
	}
	old := tf.Trajectory[0]
	if old.Seq != 0 || old.Tag != "legacy" || old.RecordedAt != "" ||
		old.Run.Seed != 7 || old.Tables[0].Title != "old" {
		t.Fatalf("legacy entry not preserved: %+v", old)
	}
	var upgraded struct {
		Trajectory []struct {
			Run json.RawMessage `json:"run"`
		} `json:"trajectory"`
	}
	decodeFile(t, path, &upgraded)
	if got, want := compactJSON(t, upgraded.Trajectory[0].Run), compactJSON(t, legacy.Run); got != want {
		t.Fatalf("legacy run rewritten:\n got %s\nwant %s", got, want)
	}
	if tf.Trajectory[1].Seq != 1 || tf.Trajectory[1].Tag != "new" {
		t.Fatalf("appended entry wrong: %+v", tf.Trajectory[1])
	}
}

// TestAppendJSONKeepsRecordedEntries pins that an append writes earlier
// entries back byte for byte: fields RunInfo does not have (here the
// engine/workers pair older runs recorded, and an unknown entry field)
// survive.
func TestAppendJSONKeepsRecordedEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	old := json.RawMessage(`{"seq":0,"recorded_at":"2024-01-02T03:04:05Z","tag":"old",` +
		`"run":{"engine":"pool","workers":2,"seed":7,"canceled":false},` +
		`"tables":[{"title":"old","columns":["x"],"rows":[["1"]]}],"ordered_visits":123}`)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(trajectoryFile{Trajectory: []json.RawMessage{old}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before trajectoryFile
	decodeFile(t, path, &before)

	if err := AppendJSON(path, "new", RunInfo{Seed: 8}, []*Table{sampleTable("new")}); err != nil {
		t.Fatal(err)
	}
	var after trajectoryFile
	decodeFile(t, path, &after)
	if len(after.Trajectory) != 2 {
		t.Fatalf("got %d entries, want 2", len(after.Trajectory))
	}
	if !bytes.Equal(after.Trajectory[0], before.Trajectory[0]) {
		t.Fatalf("recorded entry rewritten:\n got %s\nwant %s", after.Trajectory[0], before.Trajectory[0])
	}
	if got := compactJSON(t, after.Trajectory[0]); got != string(old) {
		t.Fatalf("recorded entry lost fields:\n got %s\nwant %s", got, old)
	}
	if tf := readTrajectory(t, path); tf.Trajectory[1].Seq != 1 || tf.Trajectory[1].Tag != "new" {
		t.Fatalf("appended entry wrong: %+v", tf.Trajectory[1])
	}
}

func TestAppendJSONRefusesGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_garbage.json")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSON(path, "", RunInfo{}, []*Table{sampleTable("x")}); err == nil {
		t.Fatal("AppendJSON overwrote an unrecognized file")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "not json at all" {
		t.Fatalf("refused append still modified the file: %q", raw)
	}
}

// TestAppendJSONHostFingerprint pins the host and build fields of a
// trajectory entry: a caller-supplied fingerprint round-trips unchanged,
// and an entry without one records the running process's.
func TestAppendJSONHostFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_host.json")
	given := RunInfo{
		Seed: 3, NumCPU: 64, GOMAXPROCS: 8, GoVersion: "go1.99", GOOS: "plan9", GOARCH: "riscv64",
		VCSRevision: "0123456789abcdef", VCSModified: "true",
	}
	if err := AppendJSON(path, "given", given, []*Table{sampleTable("A")}); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSON(path, "stamped", RunInfo{Seed: 4}, []*Table{sampleTable("B")}); err != nil {
		t.Fatal(err)
	}
	tf := readTrajectory(t, path)
	if len(tf.Trajectory) != 2 {
		t.Fatalf("got %d entries, want 2", len(tf.Trajectory))
	}
	if got := tf.Trajectory[0].Run; got != given {
		t.Fatalf("fingerprint did not round-trip:\n got %+v\nwant %+v", got, given)
	}
	got := tf.Trajectory[1].Run
	if got.NumCPU != runtime.NumCPU() || got.GOMAXPROCS != runtime.GOMAXPROCS(0) ||
		got.GoVersion != runtime.Version() || got.GOOS != runtime.GOOS || got.GOARCH != runtime.GOARCH {
		t.Fatalf("stamped entry does not name this process's host: %+v", got)
	}
	if got.VCSRevision == "" || got.VCSModified == "" {
		t.Fatalf("stamped entry has an empty build fingerprint: %+v", got)
	}
}
