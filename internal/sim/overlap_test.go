package sim

import (
	"testing"

	"utlb/internal/obs"
	"utlb/internal/workload"
)

func overlapCfg(m Mechanism, channels, prefetch int) Config {
	c := DefaultConfig()
	c.Mechanism = m
	c.CacheEntries = 1024
	c.Prefetch = prefetch
	c.Overlap = OverlapConfig{Enabled: true, DMAChannels: channels}
	return c
}

// TestOverlapCountersInvariant: the engine changes WHERE time is
// charged, never what happens — lookups, misses, 3C attribution, pins
// and DMA statistics must be identical between the two modes.
func TestOverlapCountersInvariant(t *testing.T) {
	tr := workload.BulkTransfer(0, 1, 42, 0.1)
	for _, m := range []Mechanism{UTLB, Interrupt} {
		seqCfg := cfg(m, 1024)
		seqCfg.Prefetch = 8
		ovlCfg := overlapCfg(m, 2, 8)
		seq, err := Run(tr, seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		ovl, err := Run(tr, ovlCfg)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Lookups != ovl.Lookups || seq.NIRefs != ovl.NIRefs ||
			seq.NIMisses != ovl.NIMisses || seq.CheckMisses != ovl.CheckMisses ||
			seq.Pins != ovl.Pins || seq.Unpins != ovl.Unpins {
			t.Errorf("%v: counters diverged between modes:\nseq: %+v\novl: %+v", m, seq, ovl)
		}
		if seq.Compulsory != ovl.Compulsory || seq.Capacity != ovl.Capacity ||
			seq.Conflict != ovl.Conflict {
			t.Errorf("%v: 3C attribution diverged between modes", m)
		}
	}
}

// TestOverlapShortensMakespan is the headline property: with DMA
// streaming on channels and the host pipelining ahead of the NIC, the
// end-to-end completion time beats the strictly serial model on a
// transfer-heavy workload.
func TestOverlapShortensMakespan(t *testing.T) {
	tr := workload.BulkTransfer(0, 1, 42, 0.1)
	seqCfg := cfg(UTLB, 1024)
	seqCfg.Prefetch = 8
	seq, err := Run(tr, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Makespan != seq.HostTime+seq.NICTime {
		t.Fatalf("sequential makespan %v != HostTime+NICTime %v",
			seq.Makespan, seq.HostTime+seq.NICTime)
	}
	ovl, err := Run(tr, overlapCfg(UTLB, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if ovl.Makespan >= seq.Makespan {
		t.Errorf("overlap makespan %v did not beat sequential %v", ovl.Makespan, seq.Makespan)
	}
	if ovl.DMATime == 0 {
		t.Error("overlap run charged no DMA channel time")
	}
	// Busy time never exceeds the horizon, and the makespan is at
	// least as long as any single processor's work.
	if ovl.HostTime > ovl.Makespan || ovl.NICTime > ovl.Makespan {
		t.Errorf("busy time exceeds makespan: host %v nic %v makespan %v",
			ovl.HostTime, ovl.NICTime, ovl.Makespan)
	}
}

// TestOverlapDeterministic: two identical overlap runs produce
// identical Results — the kernel's (time, post order) ordering leaves
// nothing to scheduling accident.
func TestOverlapDeterministic(t *testing.T) {
	tr := workload.BulkTransfer(0, 1, 7, 0.08)
	c := overlapCfg(UTLB, 4, 8)
	a, err := Run(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("overlap runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// TestOverlapValidation: enabling the engine without channels is a
// configuration error, so is sizing a channel pool the disabled engine
// would silently discard, and the zero value stays valid (disabled).
func TestOverlapValidation(t *testing.T) {
	c := DefaultConfig()
	c.Overlap.Enabled = true
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted overlap with 0 channels")
	}
	c.Overlap.DMAChannels = 1
	if err := c.Validate(); err != nil {
		t.Errorf("Validate rejected 1-channel overlap: %v", err)
	}
	c.Overlap = OverlapConfig{DMAChannels: 2}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted 2 DMA channels with the engine disabled")
	}
	if _, err := Run(workload.BulkTransfer(0, 1, 42, 0.01), c); err == nil {
		t.Error("Run ran sequentially with 2 DMA channels configured")
	}
	c.Overlap.DMAChannels = -1
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted a negative channel count")
	}
}

// TestOverlapRecordingOrdered: with a recorder attached, the Sequencer
// delivers the run's events in nondecreasing timestamp order (per the
// kernel's (time, post order) contract) and recording never changes
// Results.
func TestOverlapRecordingOrdered(t *testing.T) {
	tr := workload.BulkTransfer(0, 1, 42, 0.05)
	bare, err := Run(tr, overlapCfg(UTLB, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	var buf obs.Buffer
	c := overlapCfg(UTLB, 2, 8)
	c.Recorder = &buf
	rec, err := Run(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	rec.Config.Recorder = nil
	if bare != rec {
		t.Errorf("recording changed the Result:\nbare: %+v\nrec:  %+v", bare, rec)
	}
	events := buf.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("event %d at %v emitted after event %d at %v — sequencer broke time order",
				i, events[i].Time, i-1, events[i-1].Time)
		}
	}
}

// TestMoreChannelsNoWorse: widening the DMA pool never lengthens the
// makespan (it can only relieve channel contention).
func TestMoreChannelsNoWorse(t *testing.T) {
	tr := workload.BulkTransfer(0, 1, 42, 0.1)
	prev, err := Run(tr, overlapCfg(UTLB, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []int{2, 4} {
		cur, err := Run(tr, overlapCfg(UTLB, ch, 8))
		if err != nil {
			t.Fatal(err)
		}
		if cur.Makespan > prev.Makespan {
			t.Errorf("%d channels lengthened makespan: %v > %v", ch, cur.Makespan, prev.Makespan)
		}
		prev = cur
	}
}
