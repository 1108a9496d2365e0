package sim

import (
	"fmt"
	"testing"

	"utlb/internal/bus"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/vm"
	"utlb/internal/workload"
)

// runPerProcess is the per-process replay loop internal/experiments
// carried before sim.PerProcess existed, kept as the reference the
// unified loop is held to: it builds its own node (smaller host memory,
// bigger SRAM, a fresh scratch, no transfer ids, no 3C attribution, no
// overlap engine, no recording) and drives the per-process design one
// page at a time in trace order.
func runPerProcess(tr trace.Trace, entries int, seed int64) (Result, error) {
	var res Result
	sorted := tr
	if !tr.IsSortedByTime() {
		sorted = append(trace.Trace(nil), tr...)
		sorted.SortByTime()
	}

	frames := int64(sorted.Footprint())*2 + 8192
	host := hostos.New(0, frames*units.PageSize, hostos.DefaultCosts())
	clk := units.NewClock()
	b := bus.New(host.Memory(), clk, bus.DefaultCosts())
	// SRAM large enough for the static tables plus driver structures.
	nic := nicsim.New(0, 64*units.MB, clk, b, nicsim.DefaultCosts())
	c := designCfg(PerProcess, entries)
	c.Seed = seed
	r := &run{cfg: c, scr: NewRunScratch(), host: host, nic: nic, pids: sorted.PIDs()}
	m, _, err := newPerProcess(r)
	if err != nil {
		return res, err
	}
	for i, pid := range r.pids {
		proc, err := host.Spawn(pid, fmt.Sprintf("proc%d", pid), vm.NewSpace(pid, host.Memory(), 0))
		if err != nil {
			return res, err
		}
		if err := m.attach(i, proc); err != nil {
			return res, err
		}
	}
	vpns, infos := r.scr.batchBufs(1)
	for _, rec := range sorted {
		slot := r.slot(rec.PID)
		if err := m.post(slot, rec); err != nil {
			return res, err
		}
		for p := 0; p < units.PagesSpanned(rec.VA, int(rec.Bytes)); p++ {
			res.NIRefs++
			vpns[0] = rec.VA.PageOf() + units.VPN(p)
			if err := m.translate(slot, vpns, infos); err != nil {
				return res, err
			}
		}
	}
	m.finish(&res)
	res.HostTime = host.Clock().Now()
	res.NICTime = clk.Now()
	return res, nil
}

// TestPerProcessMatchesReference: Run with Mechanism: PerProcess
// reproduces the loop it replaced, field by field, on all seven
// applications at two seeds — with tables small enough (and not a power
// of two, as the ablation's are) that the eviction path runs.
func TestPerProcessMatchesReference(t *testing.T) {
	const entries = 163
	var evictions int64
	for _, spec := range workload.Specs() {
		for _, seed := range []int64{1998, 7} {
			tr := spec.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: seed, Scale: 0.1})
			want, err := runPerProcess(tr, entries, seed)
			if err != nil {
				t.Fatal(err)
			}
			c := designCfg(PerProcess, entries)
			c.Seed = seed
			got, err := Run(tr, c)
			if err != nil {
				t.Fatal(err)
			}
			type fields struct {
				Lookups, CheckMisses, NIRefs, Pins, Unpins       int64
				PinTime, UnpinTime, CheckTime, HostTime, NICTime units.Time
			}
			pick := func(r Result) fields {
				return fields{r.Lookups, r.CheckMisses, r.NIRefs, r.Pins, r.Unpins,
					r.PinTime, r.UnpinTime, r.CheckTime, r.HostTime, r.NICTime}
			}
			if pick(got) != pick(want) {
				t.Errorf("%s seed %d: unified loop diverged from the reference:\n got %+v\nwant %+v",
					spec.Name, seed, pick(got), pick(want))
			}
			evictions += want.Unpins
			if got.NIMisses != 0 || got.Makespan != got.HostTime+got.NICTime {
				t.Errorf("%s seed %d: NIMisses %d, makespan %v for host %v + nic %v",
					spec.Name, seed, got.NIMisses, got.Makespan, got.HostTime, got.NICTime)
			}
		}
	}
	if evictions == 0 {
		t.Error("no run evicted: the user-level capacity path was not exercised")
	}
}
