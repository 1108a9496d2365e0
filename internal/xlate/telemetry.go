package xlate

import (
	"fmt"

	"utlb/internal/telemetry"
)

// Live telemetry wiring. The service carries an optional
// *telemetry.Sink; nil means disabled. Each operation has one body,
// which drives a telemetry.Request: with a sink attached, each
// per-shard segment is timed on the sink's clock and charged lock-free
// to that shard's counters, and every SampleEvery-th request also
// gathers an obs event chain for the Chrome-trace export; the Request
// of a nil sink does nothing and allocates nothing.

// AttachTelemetry enables live telemetry on the service. Must be
// called before the service takes traffic (the field is read without
// synchronisation on the hot path); the sink's shard count must match
// the service's.
func (s *Service) AttachTelemetry(t *telemetry.Sink) error {
	if t == nil {
		return fmt.Errorf("xlate: nil telemetry sink")
	}
	if got := t.Config().Shards; got != s.cfg.Shards {
		return fmt.Errorf("xlate: telemetry sink tracks %d shards, service has %d", got, s.cfg.Shards)
	}
	s.tel = t
	return nil
}

// Telemetry returns the attached sink, nil when telemetry is off.
func (s *Service) Telemetry() *telemetry.Sink { return s.tel }
