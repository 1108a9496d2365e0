package serve

// The /api/live/* endpoints expose the translation service's live
// telemetry: the rolling-window time series, the per-shard
// load/occupancy heatmap, the SLO position, and the sampled request
// traces. They answer from the telemetry sink's lock-free counters
// and window ring, so reading them never stalls translation traffic.
// When the service runs without telemetry (nil sink) they answer 503
// so scrapers can tell "disabled" from "empty".

import (
	"io"
	"net/http"

	"utlb/internal/obs"
	"utlb/internal/telemetry"
	"utlb/internal/xlate"
)

// liveSink returns the attached telemetry sink, answering 503 and
// returning nil when telemetry is disabled.
func (s *Server) liveSink(w http.ResponseWriter) *telemetry.Sink {
	sink := s.xl.Telemetry()
	if sink == nil {
		http.Error(w, "live telemetry disabled (start the server with telemetry enabled)",
			http.StatusServiceUnavailable)
	}
	return sink
}

// handleLiveSeries serves the rolling-window time series.
func (s *Server) handleLiveSeries(w http.ResponseWriter, r *http.Request) {
	sink := s.liveSink(w)
	if sink == nil {
		return
	}
	writeJSON(w, sink.SeriesReport(sink.Now()))
}

// liveShard is one row of the shard heatmap: the sink's live counters
// and latency quantiles joined with the service's occupancy snapshot.
type liveShard struct {
	telemetry.ShardSnapshot
	Occupancy         int64 `json:"occupancy"`
	Capacity          int64 `json:"capacity"`
	OccupancyPermille int64 `json:"occupancy_permille"`
}

// liveShardsResponse answers /api/live/shards.
type liveShardsResponse struct {
	Shards int         `json:"shards"`
	NowNs  int64       `json:"now_ns"`
	Rows   []liveShard `json:"rows"`
}

// handleLiveShards serves the per-shard load/occupancy heatmap.
func (s *Server) handleLiveShards(w http.ResponseWriter, r *http.Request) {
	sink := s.liveSink(w)
	if sink == nil {
		return
	}
	now := sink.Now()
	snaps := sink.ShardSnapshots(now)
	st := s.xl.Stats()
	resp := liveShardsResponse{Shards: len(snaps), NowNs: now, Rows: make([]liveShard, len(snaps))}
	for i, snap := range snaps {
		row := liveShard{ShardSnapshot: snap}
		if i < len(st.PerShard) {
			row.Occupancy = st.PerShard[i].Occupancy
			row.Capacity = st.PerShard[i].Capacity
			row.OccupancyPermille = st.PerShard[i].OccupancyPermille
		}
		resp.Rows[i] = row
	}
	writeJSON(w, resp)
}

// handleLiveSLO serves the SLO position over the window ring.
func (s *Server) handleLiveSLO(w http.ResponseWriter, r *http.Request) {
	sink := s.liveSink(w)
	if sink == nil {
		return
	}
	writeJSON(w, sink.SLOSnapshot(sink.Now()))
}

// handleLiveTrace serves the sampled request chains as a Chrome
// trace, the same format as /api/runs/{slug}/trace.
func (s *Server) handleLiveTrace(w http.ResponseWriter, r *http.Request) {
	sink := s.liveSink(w)
	if sink == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", "attachment; filename=xlate-live.trace.json")
	stream(w, func(w io.Writer) error { return obs.WriteChromeTrace(w, sink.TraceRuns()) })
}

// AttachDefaultTelemetry enables live telemetry on the hosted
// translation service with the default geometry and the wall clock.
func AttachDefaultTelemetry(xl *xlate.Service) error {
	sink, err := telemetry.New(telemetry.DefaultConfig(xl.Config().Shards), telemetry.WallClock{})
	if err != nil {
		return err
	}
	return xl.AttachTelemetry(sink)
}
