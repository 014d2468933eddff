package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: union 10..50
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "a.1", Start: 12, End: 18, Parent: 1},   // nested in a
		{Name: "late", Start: 95, End: 120, Parent: 0}, // clipped to 95..100
		{Name: "open", Start: 80, End: -1, Parent: 0},  // never ended: ignored
		{Name: "other", Start: 0, End: 40, Parent: -1},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":  100 - 40 - 10 - 5,
		"a":     20 - 6,
		"b":     30,
		"c":     10,
		"a.1":   6,
		"late":  25,
		"open":  0,
		"other": 40,
	}
	for i, s := range spans {
		if got[i] != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, got[i], want[s.Name])
		}
	}
	if d := selfMs(spans, "b"); len(d) != 1 || d[0] != 30e-6 {
		t.Errorf("selfMs(b) = %v, want [3e-05]", d)
	}
	if d := durationsMs(spans, "open"); len(d) != 0 {
		t.Errorf("an open span has a duration: %v", d)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.closed()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s not closed: %+v", s.Name, s)
		}
	}
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}
}
