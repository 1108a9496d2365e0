package sim

import (
	"fmt"
	"strings"
	"testing"

	"utlb/internal/bus"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/units"
)

// unitCosts are a simulated node's fixed-cost rows and the unit each
// counts.
func unitCosts() map[units.Row]units.Time {
	h, n, b := hostos.DefaultCosts(), nicsim.DefaultCosts(), bus.DefaultCosts()
	return map[units.Row]units.Time{
		units.RowPinSyscall: h.SyscallEntry, units.RowPin: h.PinBase, units.RowPinPage: h.PinPerPage,
		units.RowUnpinSyscall: h.SyscallEntry, units.RowUnpin: h.UnpinBase, units.RowUnpinPage: h.UnpinPerPage,
		units.RowInterrupt: h.InterruptDispatch,
		units.RowLookup:    n.LookupBase, units.RowBatchEntry: n.BatchEntry, units.RowProbe: n.CacheProbe,
		units.RowDirectory: n.DirectoryProbe, units.RowInstall: n.CacheInstall, units.RowPoll: n.DoorbellPoll,
		units.RowDMASetup: b.DMASetup, units.RowDMAWord: b.DMAPerWord, units.RowDMAByte: b.DMAPerByte,
	}
}

// auditRows sums the rows line reads and names each fixed-cost row
// whose total is not its count times its unit.
func auditRows(who string, line func(units.Row) units.Line, unit map[units.Row]units.Time) (sum units.Time, errs []string) {
	for r := range units.Rows {
		l := line(r)
		sum += l.Total
		if u, fixed := unit[r]; fixed && l.Total != units.Time(l.Count)*u {
			errs = append(errs, fmt.Sprintf("%s row %q: %v is not %d × %v", who, r, l.Total, l.Count, u))
		}
	}
	return sum, errs
}

// auditLedger holds res, the result of the run scr last made, to its
// clocks' rows: every fixed-cost row is its count times its unit; the
// host, NIC and DMA rows sum to each clock's Busy() and to HostTime,
// NICTime and DMATime; the host split sums to HostTime, since every
// host charge is a check, a pin call or an unpin call (Intr's PinTime
// is its whole handler); and each DMA transfer paid one setup on the
// NIC clock when sequential, on a channel under overlap.
func auditLedger(res Result, scr *RunScratch) (errs []string) {
	r, unit := &scr.run, unitCosts()
	host, e := auditRows("host", r.host.Clock().Line, unit)
	errs = append(errs, e...)
	nic, e := auditRows("nic", r.nic.Clock().Line, unit)
	errs = append(errs, e...)
	var dma, dmaBusy units.Time
	setups := r.nic.Clock().Line(units.RowDMASetup).Count
	if pool := r.timing.pool; pool != nil {
		dma, e = auditRows("dma", pool.Line, unit)
		errs = append(errs, e...)
		dmaBusy = pool.Busy()
		if nic := r.nic.Clock().Sum(units.RowDMASetup, units.RowDMAWord, units.RowDMAByte); nic != 0 {
			errs = append(errs, fmt.Sprintf("overlap charged %v of DMA to the NIC clock", nic))
		}
		setups = pool.Line(units.RowDMASetup).Count
	}
	for _, c := range []struct {
		what      string
		got, want units.Time
	}{
		{"host Busy()", r.host.Clock().Busy(), host}, {"nic Busy()", r.nic.Clock().Busy(), nic},
		{"dma Busy()", dmaBusy, dma},
		{"HostTime", res.HostTime, host}, {"NICTime", res.NICTime, nic}, {"DMATime", res.DMATime, dma},
		{"CheckTime + PinTime + UnpinTime", res.CheckTime + res.PinTime + res.UnpinTime, host},
	} {
		if c.got != c.want {
			errs = append(errs, fmt.Sprintf("%s = %v, the rows sum to %v", c.what, c.got, c.want))
		}
	}
	if reads, writes, _, _ := r.nic.Bus().Stats(); setups != reads+writes {
		errs = append(errs, fmt.Sprintf("%d DMA setups for %d transfers", setups, reads+writes))
	}
	return errs
}

// TestLedgerAuditCatches is auditLedger's negative control: a clean run
// passes, a fixed cost charged to the wrong row fails by that row's
// name, and a PinTime that counts the handler's pins twice fails by the
// field's.
func TestLedgerAuditCatches(t *testing.T) {
	tr := smallTrace(t, "fft", 0.05)
	for _, c := range []struct {
		mech   Mechanism
		seed   func(*Result, *run)
		naming string
	}{
		{UTLB, func(res *Result, r *run) {
			// A directory probe charged as a cache probe.
			r.nic.Clock().Charge(units.RowProbe, 1, nicsim.DefaultCosts().DirectoryProbe)
			res.NICTime = r.nic.Clock().Busy()
		}, `nic row "probe"`},
		{Interrupt, func(res *Result, r *run) {
			// The handler's pins counted once in the handler and again.
			res.PinTime += r.host.Clock().Sum(units.RowPin, units.RowPinPage)
		}, "PinTime"},
	} {
		scr := NewRunScratch()
		res, err := RunWith(tr, designCfg(c.mech, 256), scr)
		if err != nil {
			t.Fatal(err)
		}
		if errs := auditLedger(res, scr); len(errs) != 0 {
			t.Fatalf("%v: a clean run fails the audit: %v", c.mech, errs)
		}
		c.seed(&res, &scr.run)
		errs := auditLedger(res, scr)
		if len(errs) == 0 || !strings.Contains(strings.Join(errs, "\n"), c.naming) {
			t.Errorf("%v: the seeded defect was not named %s: %v", c.mech, c.naming, errs)
		}
	}
}
