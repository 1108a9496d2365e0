// Package batcher is a lint fixture: event recording on a batched
// dispatch path. Batching tempts two regressions the rule polices —
// recording per entry on a raw recorder behind a hoisted guard (the
// disabled path is the Tap's to keep, even amortised over a batch),
// and labelling batch events with raw kind-name strings.
package batcher

import "utlb/internal/obs"

// Batcher dispatches translation batches and records one event per
// entry.
type Batcher struct {
	rec obs.Recorder
	tap *obs.Tap
}

// BadPerEntryRecord records inside the batch loop on the raw recorder,
// guard hoisted above the loop or not.
func (b *Batcher) BadPerEntryRecord(n int) {
	if b.rec != nil {
		for i := 0; i < n; i++ {
			b.rec.Record(obs.Event{Kind: obs.KindCacheHit, Arg: uint64(i)})
		}
	}
}

// GoodBatchRecord records each entry through the handle.
func (b *Batcher) GoodBatchRecord(n int) {
	for i := 0; i < n; i++ {
		b.tap.Instant(obs.KindCacheHit, uint64(i))
	}
}

// BadBatchKindLiteral tags batch dispatches by kind-name string.
func BadBatchKindLiteral(name string) bool {
	return name == "dma_read"
}
