package telemetry

import (
	"utlb/internal/obs/analyze"
)

// WindowPoint is one rolling-window sample in the live time series.
// Closed windows are immutable history; the final point of a series is
// the still-open current window (Open = true), carrying the deltas
// accrued so far.
type WindowPoint struct {
	Window  int64 `json:"window"`   // window number (monotonic)
	StartNs int64 `json:"start_ns"` // window start on the sink clock
	Open    bool  `json:"open,omitempty"`

	Totals
	P50Ns int64 `json:"latency_p50_ns"`
	P99Ns int64 `json:"latency_p99_ns"`

	LookupsPerSec float64 `json:"lookups_per_sec"`
}

// Series is the /api/live/series payload.
type Series struct {
	WindowNs int64         `json:"window_ns"`
	Windows  int           `json:"windows"`
	NowNs    int64         `json:"now_ns"`
	Points   []WindowPoint `json:"points"`
}

// pointOf renders window w (closed or open) as a series point.
func (t *Sink) pointOf(w *window, now int64) WindowPoint {
	p := WindowPoint{Window: w.num, StartNs: w.num * t.cfg.WindowNs, Open: w.num == t.lastWin}
	p.Totals = w.Totals
	p.P50Ns, p.P99Ns = w.d.Quantile(50), w.d.Quantile(99)
	spanNs := t.cfg.WindowNs
	if p.Open {
		spanNs = now - p.StartNs
	}
	if spanNs > 0 {
		p.LookupsPerSec = float64(p.Lookups) * 1e9 / float64(spanNs)
	}
	return p
}

// SeriesReport folds the ring up to now and returns the closed
// windows in order plus the open current window. Deterministic for a
// given clock and operation history.
func (t *Sink) SeriesReport(now int64) Series {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.foldLocked(now)
	sr := Series{WindowNs: t.cfg.WindowNs, Windows: t.cfg.Windows, NowNs: now}
	t.eachClosedLocked(func(w *window) {
		sr.Points = append(sr.Points, t.pointOf(w, now))
	})
	sr.Points = append(sr.Points, t.pointOf(t.openLocked(), now))
	return sr
}

// eachClosedLocked calls f on every closed window the ring still
// holds, oldest first.
func (t *Sink) eachClosedLocked(f func(*window)) {
	for w := max(t.lastWin-int64(t.cfg.Windows), 0); w < t.lastWin; w++ {
		if slot := t.slot(w); slot.num == w {
			f(slot)
		}
	}
}

// openLocked returns the open window with its counters brought up to
// date.
func (t *Sink) openLocked() *window {
	w := t.slot(t.lastWin)
	t.tallyLocked(w, t.countsLocked())
	return w
}

// SLOReport is the /api/live/slo payload: the latency objective and
// where the service stands against it over the window ring (closed
// windows in the horizon plus the open window).
type SLOReport struct {
	TargetP99Ns int64   `json:"target_p99_ns"`
	ErrorBudget float64 `json:"error_budget"`
	WindowNs    int64   `json:"window_ns"`
	Windows     int     `json:"windows"`

	Ops   int64 `json:"ops"`
	Slow  int64 `json:"slow"`
	P99Ns int64 `json:"p99_ns"`

	// BudgetUsed is (slow/ops)/budget over the horizon: 1.0 means the
	// error budget is exactly spent. BurnRate is the same ratio over
	// only the most recent closed window — how fast the budget is
	// burning right now (1.0 = burning exactly at budget).
	BudgetUsed float64 `json:"budget_used"`
	BurnRate   float64 `json:"burn_rate"`
	Compliant  bool    `json:"compliant"`
}

// SLOCompliant is the compliance predicate: the horizon p99 is at or
// under target and the error budget is not overspent.
func (r SLOReport) SLOCompliant() bool {
	return r.P99Ns <= r.TargetP99Ns && r.BudgetUsed <= 1
}

// SLOSnapshot folds the ring and evaluates the SLO over it.
func (t *Sink) SLOSnapshot(now int64) SLOReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.foldLocked(now)
	r := SLOReport{
		TargetP99Ns: t.cfg.SLOTargetNs,
		ErrorBudget: t.cfg.SLOBudget,
		WindowNs:    t.cfg.WindowNs,
		Windows:     t.cfg.Windows,
	}
	var d analyze.Digest
	var lastClosed *window
	t.eachClosedLocked(func(w *window) {
		d.Merge(&w.d)
		r.Slow += w.slow
		lastClosed = w
	})
	// Fold in the open window so "right now" includes in-flight load.
	open := t.slot(t.lastWin)
	d.Merge(&open.d)
	r.Slow += open.slow
	r.Ops = d.N()
	if r.Ops > 0 {
		r.P99Ns = d.Quantile(99)
		r.BudgetUsed = float64(r.Slow) / float64(r.Ops) / t.cfg.SLOBudget
	}
	if lastClosed != nil && lastClosed.Ops > 0 {
		r.BurnRate = float64(lastClosed.Slow) / float64(lastClosed.Ops) / t.cfg.SLOBudget
	}
	r.Compliant = r.SLOCompliant()
	return r
}

// ShardSnapshot is one shard's cumulative telemetry: counters plus
// latency quantiles from its own histogram. LoadPermille is the
// shard's share of all lookups ×1000 — the load-imbalance heatmap
// number (125 = a perfectly balanced shard of eight).
type ShardSnapshot struct {
	Shard int `json:"shard"`

	Totals
	MaxNs int64 `json:"latency_max_ns"`
	P50Ns int64 `json:"latency_p50_ns"`
	P95Ns int64 `json:"latency_p95_ns"`
	P99Ns int64 `json:"latency_p99_ns"`

	LoadPermille int64 `json:"load_permille"`
}

// ShardSnapshots folds the ring and snapshots every shard's
// cumulative counters and latency quantiles, in shard order.
func (t *Sink) ShardSnapshots(now int64) []ShardSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.foldLocked(now)
	out := make([]ShardSnapshot, len(t.shards))
	var totalLookups int64
	for i := range t.shards {
		s := &t.shards[i]
		ss := ShardSnapshot{Shard: i, MaxNs: s.d.Max()}
		if t.counts != nil {
			t.counts(i, &ss.Totals)
		}
		s.addTo(&ss.Totals)
		ss.P50Ns, ss.P95Ns, ss.P99Ns = s.d.Quantile(50), s.d.Quantile(95), s.d.Quantile(99)
		totalLookups += ss.Lookups
		out[i] = ss
	}
	if totalLookups > 0 {
		for i := range out {
			out[i].LoadPermille = out[i].Lookups * 1000 / totalLookups
		}
	}
	return out
}
