package sim

import (
	"fmt"

	"utlb/internal/bus"
	"utlb/internal/event"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/units"
)

// timing is a run's charging mode, and the only code in this package
// that knows which one is active (DESIGN.md §5, §15). Sequential
// charging, the paper's model and the default, adds every cost to the
// clock of the processor that pays it. The overlap engine attaches a
// per-run event kernel (goroutine-confined, so runs stay byte-identical
// at any -parallel width) and a DMA channel pool: the bus books
// transfers on the pool, interrupts synchronise the two clocks instead
// of adding their costs, and the host runs ahead of the NIC.
type timing struct {
	host, nic *units.Clock
	bus       *bus.Bus
	kernel    *event.Kernel // nil = sequential charging
	pool      *event.Pool
	sequencer *event.Sequencer
}

// setup wires cfg's charging mode into the node and returns the
// recorder its layers should record to. Under overlap the layers no
// longer record in timestamp order (a DMA tail completes after the host
// has moved on), so a Sequencer holds every event and finish delivers
// them to cfg.Recorder in (time, record) order. The engine is scr's,
// reset: its lists grow to a run's DMA and event counts, and a run that
// returned an error may have left either part full.
func (t *timing) setup(cfg Config, scr *RunScratch, host *hostos.Host, b *bus.Bus, nic *nicsim.NIC) obs.Recorder {
	*t = timing{host: host.Clock(), nic: nic.Clock(), bus: b}
	if !cfg.Overlap.Enabled {
		return cfg.Recorder
	}
	t.kernel, t.pool = &scr.kernel, &scr.dma
	t.kernel.Reset()
	t.pool.Reset(cfg.Overlap.DMAChannels)
	b.SetOverlap(t.kernel, t.pool)
	host.SetInterruptSync(t.nic)
	if cfg.Recorder == nil {
		return nil
	}
	t.sequencer = &scr.sequencer
	t.sequencer.Reset(t.kernel, cfg.Recorder)
	return t.sequencer
}

// post is the doorbell: the firmware cannot start an operation before
// the host has posted it. The host does not wait for the NIC — pin work
// for later records overlaps the NIC draining earlier ones. Sequential
// clocks are independent, so there it is a no-op.
func (t *timing) post() {
	if t.kernel != nil {
		t.nic.AdvanceTo(t.host.Now())
	}
}

// finish closes the run's books into res.
func (t *timing) finish(res *Result) error {
	if t.kernel == nil {
		// Strictly serial: completion time is the sum.
		res.HostTime = t.host.Now()
		res.NICTime = t.nic.Now()
		res.Makespan = res.HostTime + res.NICTime
		return nil
	}
	// Drain: every in-flight DMA completion dispatches, then (when
	// recording) every held event. Only then are the horizons valid.
	if t.sequencer != nil {
		t.sequencer.Drain()
	} else {
		t.kernel.Run()
	}
	if n := t.bus.InFlight(); n != 0 {
		return fmt.Errorf("sim: %d DMA transfers still in flight after kernel drain", n)
	}
	// Busy time, not clock position: work performed, waits excluded.
	res.HostTime = t.host.Busy()
	res.NICTime = t.nic.Busy()
	res.DMATime = t.pool.Busy()
	res.Makespan = max(t.host.Now(), t.nic.Now(), t.pool.Horizon())
	return nil
}
