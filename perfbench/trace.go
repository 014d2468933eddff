package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Times are
// nanoseconds since the tracer started; parent is the index of the
// enclosing span (-1 for a root); req groups the spans of one request
// (0 outside requests).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced run: begin returns -1 and end ignores it, so call sites
// carry no conditionals.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// closed returns a copy of the finished spans' table (open spans keep
// End = -1 and are skipped by the aggregations).
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsMs returns the durations of every finished span named name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by the union of its children's intervals (clipped to
// the parent), so overlapping children are not subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			cs := spans[c]
			if cs.End < cs.Start {
				continue
			}
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := int64(0)
		curA, curB := int64(0), int64(-1)
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfMs returns the self times of every finished span named name.
func selfMs(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(self[i])/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
