package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// tracePath is where the traced pass leaves its spans. The root
// .gitignore already covers artifacts/.
const tracePath = "artifacts/bench/trace.json"

// noSpan is the parent of a root span.
const noSpan = -1

// span is one timed interval at a layer boundary bench/ can reach.
// Start and End are nanoseconds since the tracer was made; Parent is
// the index of the span that caused this one; spans of one request
// share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer holds spans in memory until the run ends. A nil tracer is the
// untraced pass: begin and end cost one pointer compare.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStats is one span name's totals: self time is a span's duration
// minus the part of it its children cover.
type spanStats struct {
	name    string
	count   int
	p50     int64 // median duration
	selfP50 int64 // median self time
}

// stats groups the spans by name.
func (t *tracer) stats() []spanStats {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byName := map[string]*[2][]int64{}
	var names []string
	for i, s := range t.spans {
		g := byName[s.Name]
		if g == nil {
			g = &[2][]int64{}
			byName[s.Name] = g
			names = append(names, s.Name)
		}
		g[0] = append(g[0], s.End-s.Start)
		g[1] = append(g[1], self[i])
	}
	slices.Sort(names)
	out := make([]spanStats, 0, len(names))
	for _, name := range names {
		g := byName[name]
		slices.Sort(g[0])
		slices.Sort(g[1])
		out = append(out, spanStats{name: name, count: len(g[0]), p50: percentile(g[0], 50), selfP50: percentile(g[1], 50)})
	}
	return out
}

// statOf picks one name's row out of stats.
func statOf(stats []spanStats, name string) spanStats {
	i := slices.IndexFunc(stats, func(s spanStats) bool { return s.name == name })
	if i < 0 {
		return spanStats{name: name}
	}
	return stats[i]
}

// total sums the durations of the spans called name whose parent is
// called parent ("" for root spans).
func (t *tracer) total(name, parent string) int64 {
	var sum int64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if (s.Parent < 0 && parent == "") || (s.Parent >= 0 && t.spans[s.Parent].Name == parent) {
			sum += s.End - s.Start
		}
	}
	return sum
}

func printSpanStats(w io.Writer, stats []spanStats, path string) {
	fmt.Fprintf(w, "\n== spans (written to %s) ==\n", path)
	fmt.Fprintf(w, "  %-24s %8s %12s %12s\n", "span", "count", "p50 us", "self p50 us")
	for _, s := range stats {
		fmt.Fprintf(w, "  %-24s %8d %12.2f %12.2f\n", s.name, s.count, float64(s.p50)/1e3, float64(s.selfP50)/1e3)
	}
}
