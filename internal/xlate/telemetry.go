package xlate

import (
	"fmt"

	"utlb/internal/telemetry"
)

// Live telemetry wiring. The service carries an optional
// *telemetry.Sink; nil means disabled. Each operation has one body,
// which drives a telemetry.Request: every SampleEvery-th request times
// its per-shard segments on the sink's clock and gathers an obs event
// chain for the Chrome-trace export; any other request, and every
// request of a nil sink, does nothing after its one clock read and
// allocates nothing. The counts the sink reports are the shards' own,
// read by shardCounts.

// AttachTelemetry enables live telemetry on the service and binds the
// sink to the service's shard counts. Must be called before the
// service takes traffic (the field is read without synchronisation on
// the hot path); the sink's shard count must match the service's, and
// a sink serves one service.
//
// Lock order: the sink reads the counts while it holds its own lock,
// so it takes Sink.mu and then each shard's mutex and readers in turn
// (shardStats). The service therefore never enters the sink during a
// shard visit: every Request call comes before the visit or after it.
func (s *Service) AttachTelemetry(t *telemetry.Sink) error {
	if t == nil {
		return fmt.Errorf("xlate: nil telemetry sink")
	}
	if got := t.Config().Shards; got != s.cfg.Shards {
		return fmt.Errorf("xlate: telemetry sink tracks %d shards, service has %d", got, s.cfg.Shards)
	}
	if err := t.Bind(s.shardCounts); err != nil {
		return err
	}
	s.tel = t
	return nil
}

// Telemetry returns the attached sink, nil when telemetry is off.
func (s *Service) Telemetry() *telemetry.Sink { return s.tel }

// shardCounts adds shard si's counts to t: the sink's count source.
func (s *Service) shardCounts(si int, t *telemetry.Totals) {
	cs, _ := s.shardStats(si)
	t.Lookups += cs.Hits + cs.Misses
	t.Hits += cs.Hits
	t.Misses += cs.Misses
	t.Inserts += cs.Fills
	t.Evictions += cs.Evictions
	t.Invalidations += cs.Invalidations
}
