package sim

import (
	"fmt"
	"slices"
	"testing"

	"utlb/internal/bus"
	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/vm"
	"utlb/internal/workload"
)

// designCfg is a configuration design m accepts, entries large. A
// design that rejects the paper's default geometry gets its line here.
func designCfg(m Mechanism, entries int) Config {
	c := cfg(m, entries)
	if m == PerProcess {
		c.IndexOffset = false
	}
	return c
}

// counters are the Result fields no timing mode may change: the counts,
// and the host time the check, pin and unpin work itself took, which
// excludes any wait for the NIC.
func counters(r Result) [12]int64 {
	return [12]int64{r.Lookups, r.CheckMisses, r.NIMisses, r.NIRefs, r.Pins, r.Unpins,
		r.Compulsory, r.Capacity, r.Conflict,
		int64(r.PinTime), int64(r.UnpinTime), int64(r.CheckTime)}
}

// newDesignRig builds design c.Mechanism the way RunWith does, on a
// node of its own (64 MB of host memory, 1 MB of NIC SRAM, a fresh
// scratch), and attaches one process per pid, so a test can drive post
// and translate itself.
func newDesignRig(t *testing.T, c Config, pids ...units.ProcID) (*run, mechanism) {
	t.Helper()
	scr := NewRunScratch()
	r := &scr.run
	*r = run{cfg: c, scr: scr}
	r.host = hostos.New(0, 64*units.MB, hostos.DefaultCosts())
	clk := units.NewClock()
	r.nic = nicsim.New(0, units.MB, clk, bus.New(r.host.Memory(), clk, bus.DefaultCosts()), nicsim.DefaultCosts())
	m, width, err := designs[c.Mechanism].build(r)
	if err != nil {
		t.Fatal(err)
	}
	scr.batchBufs(width)
	for _, pid := range pids {
		if err := attachNext(t, r, m, pid); err != nil {
			t.Fatal(err)
		}
	}
	return r, m
}

// attachNext spawns pid and attaches it to m as the next process slot.
func attachNext(t *testing.T, r *run, m mechanism, pid units.ProcID) error {
	t.Helper()
	proc, err := r.host.Spawn(pid, "app", vm.NewSpace(pid, r.host.Memory(), r.cfg.PinLimitPages))
	if err != nil {
		t.Fatal(err)
	}
	r.pids = append(r.pids, pid)
	return m.attach(len(r.pids)-1, proc)
}

// translateOne dispatches page vpn of pid's process slot (-1 for a pid
// with none) to m on its own and returns the frame m landed in scr.pfns
// and whether the NIC hit.
func translateOne(r *run, m mechanism, pid units.ProcID, vpn units.VPN) (units.PFN, bool, error) {
	var info [1]core.TranslateInfo
	err := m.translate(r.slot(pid), []units.VPN{vpn}, info[:])
	return r.scr.pfns[0], info[0].Hit, err
}

// finished is m's counters so far.
func finished(m mechanism) Result {
	var res Result
	m.finish(&res)
	return res
}

// TestEveryMechanism is the conformance suite of the mechanism seam: it
// ranges over the registry, so a new design is held to it the day its
// entry is added. For each design × {sequential, overlap on 1 and 2
// channels} × dispatch width {1, 8} on two workloads: the 3C classes
// partition the NI misses, counters do not depend on the timing mode,
// overlapping never lengthens the makespan, a warm scratch (last used
// by a different design) changes nothing, recording changes nothing —
// nor, under overlap, does what the scratch-held engine last ran: a
// larger run, or one that failed with completions queued and events
// held — every recorded event carries a transfer id, and under overlap an
// interrupt is a rendezvous: the firmware probes nothing while the host
// is in a handler, so the Interrupt design, which has no DMA to hide
// and no host work ahead of the NIC, gains nothing from the engine.
func TestEveryMechanism(t *testing.T) {
	traces := map[string]trace.Trace{
		"fft":  smallTrace(t, "fft", 0.05),
		"bulk": workload.BulkTransfer(0, 1, 42, 0.05),
	}
	warm := NewRunScratch()
	// record replays tr into a buffer, on scr.
	record := func(tr trace.Trace, c Config, scr *RunScratch) (Result, []obs.Event, error) {
		var buf obs.Buffer
		c.Recorder = &buf
		res, err := RunWith(tr, c, scr)
		res.Config.Recorder = nil
		return res, buf.Events(), err
	}
	// What an overlap run may find in its scratch's engine: the queue and
	// holding slice of a run twice the size, or those of a run that died
	// mid-flight (its pin limit cannot hold one bulk operation).
	larger := designCfg(UTLB, 256)
	larger.BatchPages, larger.Overlap = 8, OverlapConfig{Enabled: true, DMAChannels: 2}
	failing := larger
	failing.PinLimitPages = 1
	priors := []struct {
		name string
		tr   trace.Trace
		cfg  Config
		fail bool
	}{
		{"a larger run", workload.BulkTransfer(0, 1, 42, 0.1), larger, false},
		{"a failed run", traces["bulk"], failing, true},
	}
	for i := range designs {
		m := Mechanism(i)
		if err := designCfg(m, 256).Validate(); err != nil {
			t.Fatalf("%v: no valid baseline configuration: %v", m, err)
		}
		for app, tr := range traces {
			for _, batch := range []int{1, 8} {
				base := designCfg(m, 256)
				base.BatchPages = batch
				base.PinLimitPages = 64
				if base.Validate() != nil {
					continue // the design has no batched dispatch
				}
				var seq Result
				for _, channels := range []int{0, 1, 2} {
					c := base
					c.Overlap = OverlapConfig{Enabled: channels > 0, DMAChannels: channels}
					name := fmt.Sprintf("%v/%s/batch%d/ch%d", m, app, batch, channels)

					res, err := RunWith(tr, c, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Compulsory+res.Capacity+res.Conflict != res.NIMisses {
						t.Errorf("%s: 3C %d+%d+%d != %d NI misses", name,
							res.Compulsory, res.Capacity, res.Conflict, res.NIMisses)
					}
					if res.Lookups == 0 || res.NIRefs < res.Lookups {
						t.Errorf("%s: %d NI refs for %d lookups", name, res.NIRefs, res.Lookups)
					}
					if channels == 0 {
						seq = res
					} else {
						if counters(res) != counters(seq) {
							t.Errorf("%s: counters depend on the timing mode:\nseq %+v\novl %+v", name, seq, res)
						}
						if res.Makespan > seq.Makespan {
							t.Errorf("%s: overlap makespan %v > sequential %v", name, res.Makespan, seq.Makespan)
						}
						if m == Interrupt && app == "bulk" && res.Makespan != seq.Makespan {
							t.Errorf("%s: overlap makespan %v != sequential %v: the NIC did not wait for its handlers",
								name, res.Makespan, seq.Makespan)
						}
					}

					reused, err := RunWith(tr, c, warm)
					if err != nil {
						t.Fatalf("%s warm: %v", name, err)
					}
					if reused != res {
						t.Errorf("%s: warm scratch changed the result:\nfresh %+v\nwarm  %+v", name, res, reused)
					}

					recorded, events, err := record(tr, c, warm)
					if err != nil {
						t.Fatalf("%s recorded: %v", name, err)
					}
					if recorded != res {
						t.Errorf("%s: recording changed the result:\nplain    %+v\nrecorded %+v", name, res, recorded)
					}
					if len(events) == 0 {
						t.Errorf("%s: nothing recorded", name)
					}
					if channels > 0 {
						_, fresh, err := record(tr, c, nil)
						if err != nil {
							t.Fatalf("%s recorded fresh: %v", name, err)
						}
						if !slices.Equal(events, fresh) {
							t.Errorf("%s: warm scratch changed the event stream (%d events, fresh %d)", name, len(events), len(fresh))
						}
						for _, prior := range priors {
							scr := NewRunScratch()
							_, left, err := record(prior.tr, prior.cfg, scr)
							if (err != nil) != prior.fail || (!prior.fail && len(left) <= len(fresh)) ||
								(prior.fail && scr.run.timing.bus.InFlight() == 0) {
								t.Fatalf("%s: %s is not one: err %v, %d events delivered, %d transfers left in flight",
									name, prior.name, err, len(left), scr.run.timing.bus.InFlight())
							}
							got, after, err := record(tr, c, scr)
							if err != nil {
								t.Fatalf("%s after %s: %v", name, prior.name, err)
							}
							if got != res || !slices.Equal(after, fresh) {
								t.Errorf("%s: a scratch left by %s changed the run:\nfresh %+v, %d events\nafter %+v, %d events",
									name, prior.name, res, len(fresh), got, len(after))
							}
						}
					}
					// Under overlap the sequencer delivers in start order, so
					// every handler that could cover a probe precedes it.
					var handlerEnd units.Time
					for _, ev := range events {
						if ev.Xfer == 0 {
							t.Fatalf("%s: %s event without a transfer id", name, ev.Kind)
						}
						switch {
						case channels == 0:
						case ev.Kind == obs.KindInterrupt:
							handlerEnd = max(handlerEnd, ev.Time+ev.Dur)
						case ev.Kind == obs.KindNIProbe && ev.Time < handlerEnd:
							t.Fatalf("%s: ni_probe at %v inside a host interrupt ending %v", name, ev.Time, handlerEnd)
						}
					}
				}
			}
		}
	}
}

// TestZeroByteRecordIsNoLookup: a record that spans no page (both trace
// codecs accept Bytes: 0) is no lookup in any design. The replay loop
// skips it, so every design's per-lookup rates share one denominator.
func TestZeroByteRecordIsNoLookup(t *testing.T) {
	tr := trace.Trace{
		{Time: 0, PID: 1, VA: 0, Bytes: units.PageSize},
		{Time: 1, PID: 1, VA: units.PageSize, Bytes: 0},
		{Time: 2, PID: 1, VA: 2 * units.PageSize, Bytes: units.PageSize},
	}
	for i := range designs {
		m := Mechanism(i)
		res, err := Run(tr, designCfg(m, 64))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Lookups != 2 || res.NIRefs != 2 {
			t.Errorf("%v: %d lookups and %d NI refs for two one-page records and one empty one, want 2 and 2", m, res.Lookups, res.NIRefs)
		}
	}
}

// TestPerProcessRejects: each Config field the per-process design has
// no way to honour is an error, not ignored.
func TestPerProcessRejects(t *testing.T) {
	if err := designCfg(PerProcess, 1638).Validate(); err != nil {
		t.Fatalf("a table size need not be a power of two: %v", err)
	}
	bad := map[string]func(c *Config){
		"no table":     func(c *Config) { c.CacheEntries = 0 },
		"negative":     func(c *Config) { c.CacheEntries = -4 },
		"ways":         func(c *Config) { c.Ways = 2 },
		"index offset": func(c *Config) { c.IndexOffset = true },
		"prefetch":     func(c *Config) { c.Prefetch = 4 },
		"pre-pin":      func(c *Config) { c.Prepin = 4 },
		"batch":        func(c *Config) { c.BatchPages = 8 },
	}
	tr := trace.Trace{{Time: 0, PID: 1, VA: 0, Bytes: 4096}}
	for name, mutate := range bad {
		c := designCfg(PerProcess, 64)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
		if _, err := Run(tr, c); err == nil {
			t.Errorf("%s: Run accepted the config", name)
		}
	}
	// Tables that do not fit in NIC SRAM fail the run (§3.1's size
	// limitation), they are not truncated.
	if _, err := Run(tr, designCfg(PerProcess, 1<<18+1)); err == nil {
		t.Error("a table one entry over 1 MB fit into 1 MB of SRAM")
	}
}
