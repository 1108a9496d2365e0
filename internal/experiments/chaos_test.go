package experiments

import (
	"fmt"
	"testing"

	"utlb/internal/bus"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/units"
	"utlb/internal/vmmc"
)

// TestChaosLedgerAddsUp holds every clock of the -exp chaos cluster, at
// every fault rate, to its ledger: each fixed-cost row totals its count
// times its unit, and the rows sum to the clock's Busy(). Chaos is the
// one place faults are armed (sim.Config arms none), so this is where
// the reclaimer, link timeouts, remap backoffs and data DMA charge.
func TestChaosLedgerAddsUp(t *testing.T) {
	h, n, b := hostos.DefaultCosts(), nicsim.DefaultCosts(), bus.DefaultCosts()
	unit := map[units.Row]units.Time{
		units.RowPinSyscall: h.SyscallEntry, units.RowPin: h.PinBase, units.RowPinPage: h.PinPerPage,
		units.RowUnpinSyscall: h.SyscallEntry, units.RowUnpin: h.UnpinBase, units.RowUnpinPage: h.UnpinPerPage,
		units.RowInterrupt: h.InterruptDispatch,
		units.RowLookup:    n.LookupBase, units.RowBatchEntry: n.BatchEntry, units.RowProbe: n.CacheProbe,
		units.RowDirectory: n.DirectoryProbe, units.RowInstall: n.CacheInstall, units.RowPoll: n.DoorbellPoll,
		units.RowDMASetup: b.DMASetup, units.RowDMAWord: b.DMAPerWord, units.RowDMAByte: b.DMAPerByte,
		units.RowRemap: vmmc.RemapCost, units.RowTimeout: 50 * units.Microsecond, // vmmc's retransmitTimeout
	}
	opts := Options{Scale: 0.05, Seed: 7}
	charged := map[units.Row]int64{}
	for mi := range chaosMultipliers {
		cl, inj, err := chaosPoint(opts, mi)
		if err != nil {
			t.Fatal(err)
		}
		unit[units.RowRoundTrip] = cl.Network().Costs().TransferTime(0)
		if _, err := chaosRun(cl, inj, 8); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < cl.Nodes(); id++ {
			node := cl.Node(units.NodeID(id))
			for who, c := range map[string]*units.Clock{"host": node.Host().Clock(), "nic": node.NIC().Clock()} {
				name := fmt.Sprintf("x%.1f node %d %s", chaosMultipliers[mi], id, who)
				var sum units.Time
				for r := range units.Rows {
					l := c.Line(r)
					sum += l.Total
					charged[r] += l.Count
					if u, fixed := unit[r]; fixed && l.Total != units.Time(l.Count)*u {
						t.Errorf("%s row %q: %v is not %d × %v", name, r, l.Total, l.Count, u)
					}
				}
				if sum != c.Busy() {
					t.Errorf("%s: rows sum to %v, Busy() %v", name, sum, c.Busy())
				}
			}
		}
	}
	// The sweep reaches the fault paths, or it checked nothing of them.
	for _, r := range []units.Row{units.RowReclaim, units.RowTimeout, units.RowDMAByte, units.RowRoundTrip} {
		if charged[r] == 0 {
			t.Errorf("no %q charge in the sweep", r)
		}
	}
}
