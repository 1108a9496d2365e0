package sim

import (
	"testing"

	"utlb/internal/obs"
)

// TestRecorderDoesNotChangeResult runs the same trace with and without
// a recorder attached, for both mechanisms, and demands every Result
// field match: recording must be strictly observational.
func TestRecorderDoesNotChangeResult(t *testing.T) {
	tr := smallTrace(t, "fft", 0.05)
	for _, mech := range []Mechanism{UTLB, Interrupt} {
		cfg := DefaultConfig()
		cfg.Mechanism = mech
		cfg.CacheEntries = 1024
		cfg.Seed = 42

		plain, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := obs.NewBuffer("observed")
		cfg.Recorder = buf
		observed, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain.Config, observed.Config = Config{}, Config{}
		if plain != observed {
			t.Errorf("mechanism %v: recording changed the result:\nplain:    %+v\nobserved: %+v",
				mech, plain, observed)
		}
		if buf.Len() == 0 {
			t.Errorf("mechanism %v: no events recorded", mech)
		}
	}
}

// TestRecordedEventsMatchResult cross-checks the recorded timeline
// against the Result counters: 3C instants must agree with the
// Compulsory/Capacity/Conflict totals, cache misses with NIMisses,
// and every event must carry a valid kind.
func TestRecordedEventsMatchResult(t *testing.T) {
	tr := smallTrace(t, "fft", 0.05)
	cfg := DefaultConfig()
	cfg.CacheEntries = 1024
	cfg.Seed = 42
	buf := obs.NewBuffer("x")
	cfg.Recorder = buf
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[obs.Kind]int64{}
	var lastTime = map[obs.Kind]int64{}
	for _, ev := range buf.Events() {
		if ev.Kind == obs.KindNone || int(ev.Kind) >= obs.NumKinds {
			t.Fatalf("invalid kind %d recorded", ev.Kind)
		}
		if ev.Kind.IsSpan() {
			if ev.Dur < 0 {
				t.Fatalf("%s span with negative duration %d", ev.Kind, ev.Dur)
			}
		} else if ev.Dur != 0 {
			t.Fatalf("instant %s carries duration %d", ev.Kind, ev.Dur)
		}
		if int64(ev.Time) < lastTime[ev.Kind] {
			t.Fatalf("%s events not time-monotone", ev.Kind)
		}
		lastTime[ev.Kind] = int64(ev.Time)
		counts[ev.Kind]++
	}
	if counts[obs.KindMissCompulsory] != res.Compulsory ||
		counts[obs.KindMissCapacity] != res.Capacity ||
		counts[obs.KindMissConflict] != res.Conflict {
		t.Errorf("3C events (%d/%d/%d) disagree with result (%d/%d/%d)",
			counts[obs.KindMissCompulsory], counts[obs.KindMissCapacity], counts[obs.KindMissConflict],
			res.Compulsory, res.Capacity, res.Conflict)
	}
	if counts[obs.KindCacheMiss] != res.NIMisses {
		t.Errorf("cache_miss events %d != NIMisses %d", counts[obs.KindCacheMiss], res.NIMisses)
	}
	if counts[obs.KindCacheHit]+counts[obs.KindCacheMiss] != res.NIRefs {
		t.Errorf("cache lookups %d != NIRefs %d",
			counts[obs.KindCacheHit]+counts[obs.KindCacheMiss], res.NIRefs)
	}
	if got := counts[obs.KindCheckMiss]; got != res.CheckMisses {
		t.Errorf("check_miss events %d != CheckMisses %d", got, res.CheckMisses)
	}
}

// TestTransferIDsCoverTimeline asserts the transfer-id plumbing is
// complete for both mechanisms: every recorded event carries a
// non-zero id, ids are dense from 1 up to the trace-record count
// (each record is one transfer), and ids never decrease in recording
// order — the single cursor advances once per record.
func TestTransferIDsCoverTimeline(t *testing.T) {
	tr := smallTrace(t, "fft", 0.05)
	for _, mech := range []Mechanism{UTLB, Interrupt} {
		cfg := DefaultConfig()
		cfg.Mechanism = mech
		cfg.CacheEntries = 1024
		cfg.Seed = 42
		buf := obs.NewBuffer("x")
		cfg.Recorder = buf
		if _, err := Run(tr, cfg); err != nil {
			t.Fatal(err)
		}
		seen := map[uint32]bool{}
		var last uint32
		for _, ev := range buf.Events() {
			if ev.Xfer == 0 {
				t.Fatalf("mechanism %v: %s event without transfer id", mech, ev.Kind)
			}
			if ev.Xfer < last {
				t.Fatalf("mechanism %v: transfer id went backwards (%d after %d)", mech, ev.Xfer, last)
			}
			last = ev.Xfer
			seen[ev.Xfer] = true
		}
		if int(last) != len(tr) {
			t.Errorf("mechanism %v: max transfer id %d != %d trace records",
				mech, last, len(tr))
		}
		for id := uint32(1); id <= last; id++ {
			if !seen[id] {
				// Not every record produces events only if nothing at all
				// was recorded for it; with check+probe spans on every
				// lookup that never happens.
				t.Errorf("mechanism %v: transfer id %d has no events", mech, id)
			}
		}
	}
}
