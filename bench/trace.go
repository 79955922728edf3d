package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory. Every method is safe
// on a nil tracer and then does nothing, so operation code calls it
// unconditionally and the untraced phase pays one nil check per span.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed call. Spans of one request share an id; parent is the
// index of the enclosing span, -1 for a root.
type span struct {
	name       string
	id         string
	parent     int
	lane       int
	tag        string
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, id string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, lane: lane, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
}

// endTag closes span i and labels it (warm or cold solve, hit or miss).
func (t *tracer) endTag(i int, tag string) {
	if t == nil || i < 0 {
		return
	}
	t.end(i)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].tag = tag
}

// add records a span whose interval was measured by the program rather
// than around a call (the solver's own wall clock, a job's server-side
// timestamps) and returns its index (-1 on a nil tracer).
func (t *tracer) add(name, id string, parent, lane int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, lane: lane,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// durations returns the durations of the named spans carrying tag (any
// tag when tag is "*").
func (t *tracer) durations(name, tag string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && (tag == "*" || s.tag == tag) && s.end >= s.start {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.end < s.start {
			continue
		}
		type iv struct{ a, b time.Duration }
		var cover []iv
		for _, c := range children[i] {
			a, b := max(t.spans[c].start, s.start), min(t.spans[c].end, s.end)
			if b > a {
				cover = append(cover, iv{a, b})
			}
		}
		sort.Slice(cover, func(x, y int) bool { return cover[x].a < cover[y].a })
		var covered, reach time.Duration
		reach = s.start
		for _, c := range cover {
			a := max(c.a, reach)
			if c.b > a {
				covered += c.b - a
				reach = c.b
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfOf returns the self times of the named spans.
func (t *tracer) selfOf(name string) []time.Duration {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	var out []time.Duration
	for i, s := range t.spans {
		if s.name == name {
			out = append(out, self[i])
		}
	}
	return out
}

// writeSelfTable prints each span name's calls, total self time and share
// of all self time, grouped by layer (the name's prefix before the dot).
func (t *tracer) writeSelfTable(w io.Writer) {
	self := t.selfTimes()
	type row struct {
		name  string
		calls int
		self  time.Duration
	}
	rows := make(map[string]*row)
	var total time.Duration
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &row{name: s.name}
			rows[s.name] = r
		}
		r.calls++
		r.self += self[i]
		total += self[i]
	}
	var sorted []*row
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(a, b int) bool {
		la, lb := layerOf(sorted[a].name), layerOf(sorted[b].name)
		if la != lb {
			return la < lb
		}
		return sorted[a].self > sorted[b].self
	})
	fmt.Fprintf(w, "# %-12s %-30s %8s %12s %7s\n", "layer", "span", "calls", "self_ms", "share")
	for _, r := range sorted {
		fmt.Fprintf(w, "# %-12s %-30s %8d %12.3f %6.2f%%\n", layerOf(r.name), r.name, r.calls,
			ms(r.self), 100*ratio(r.self.Seconds(), total.Seconds()))
	}
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path, workload string, gomaxprocs int) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	doc := struct {
		TraceEvents []event           `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}{OtherData: map[string]string{"workload": workload, "gomaxprocs": fmt.Sprint(gomaxprocs)}}
	for _, s := range t.spans {
		args := map[string]string{"id": s.id}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name + " " + t.spans[s.parent].id
		}
		if s.tag != "" {
			args["tag"] = s.tag
		}
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane, Args: args,
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
