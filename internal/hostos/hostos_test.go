package hostos

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"utlb/internal/obs"
	"utlb/internal/units"
	"utlb/internal/vm"
)

func newHost(t *testing.T) *Host {
	t.Helper()
	return New(0, 16*units.MB, DefaultCosts())
}

func spawn(t *testing.T, h *Host, pid units.ProcID, pinLimit int) *Process {
	t.Helper()
	p, err := h.Spawn(pid, "test", vm.NewSpace(pid, h.Memory(), pinLimit))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Table 1 calibration: composite pin/unpin costs must land near the
// paper's measurements (within 15%).
func TestPinUnpinCostCalibration(t *testing.T) {
	c := DefaultCosts()
	paperPin := map[int]float64{1: 27, 2: 30, 4: 36, 8: 47, 16: 70, 32: 115}
	paperUnpin := map[int]float64{1: 25, 2: 30, 4: 36, 8: 50, 16: 80, 32: 139}
	within := func(got, want float64) bool {
		return math.Abs(got-want)/want < 0.15
	}
	for n, want := range paperPin {
		if got := c.PinCost(n).Micros(); !within(got, want) {
			t.Errorf("PinCost(%d) = %.1fus, paper %.0fus", n, got, want)
		}
	}
	for n, want := range paperUnpin {
		if got := c.UnpinCost(n).Micros(); !within(got, want) {
			t.Errorf("UnpinCost(%d) = %.1fus, paper %.0fus", n, got, want)
		}
	}
}

func TestZeroPageCosts(t *testing.T) {
	c := DefaultCosts()
	if c.PinCost(0) != 0 || c.UnpinCost(0) != 0 || c.KernelPinCost(-1) != 0 || c.KernelUnpinCost(0) != 0 {
		t.Error("zero/negative page counts should cost nothing")
	}
}

func TestKernelCostsSkipDomainCrossing(t *testing.T) {
	c := DefaultCosts()
	if c.KernelPinCost(4) != c.PinCost(4)-c.SyscallEntry {
		t.Error("KernelPinCost should omit exactly the syscall entry")
	}
	if c.KernelUnpinCost(4) != c.UnpinCost(4)-c.SyscallEntry {
		t.Error("KernelUnpinCost should omit exactly the syscall entry")
	}
}

func TestSpawnDuplicatePID(t *testing.T) {
	h := newHost(t)
	spawn(t, h, 1, 0)
	if _, err := h.Spawn(1, "dup", vm.NewSpace(1, h.Memory(), 0)); err == nil {
		t.Error("duplicate pid accepted")
	}
	if h.Processes() != 1 {
		t.Errorf("Processes = %d", h.Processes())
	}
	if h.Process(1) == nil || h.Process(2) != nil {
		t.Error("Process lookup wrong")
	}
}

func TestPinPagesChargesTimeAndPins(t *testing.T) {
	h := newHost(t)
	p := spawn(t, h, 1, 0)
	before := h.Clock().Now()
	pfns, err := h.PinPages(p, []units.VPN{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(pfns) != 3 {
		t.Fatalf("pfns = %v", pfns)
	}
	charged := h.Clock().Now() - before
	if charged != h.Costs().PinCost(3) {
		t.Errorf("charged %v, want %v", charged, h.Costs().PinCost(3))
	}
	for _, vpn := range []units.VPN{10, 11, 12} {
		if !p.Space().Pinned(vpn) {
			t.Errorf("page %#x not pinned", vpn)
		}
	}
}

func TestPinPagesRollbackOnQuota(t *testing.T) {
	h := newHost(t)
	p := spawn(t, h, 1, 2)
	_, err := h.PinPages(p, []units.VPN{1, 2, 3})
	if !errors.Is(err, vm.ErrPinLimit) {
		t.Fatalf("err = %v, want ErrPinLimit", err)
	}
	if p.Space().PinnedPages() != 0 {
		t.Errorf("partial pins not rolled back: %d", p.Space().PinnedPages())
	}
	// The rejection names the page it stopped at, and costs nothing
	// until it is printed: callers evict and retry in a loop.
	want := fmt.Sprintf("hostos: pin page 0x3 for pid 1: %v", vm.ErrPinLimit)
	var pe *PinError
	if !errors.As(err, &pe) || pe.VPN != 3 || pe.PID != 1 || err.Error() != want {
		t.Errorf("err = %q (%+v), want %q", err, pe, want)
	}
}

// TestPinRejectionAllocBudget: after a process' first, a quota
// rejection allocates nothing.
func TestPinRejectionAllocBudget(t *testing.T) {
	h := newHost(t)
	p := spawn(t, h, 1, 2)
	vpns := []units.VPN{1, 2, 3}
	if allocs := testing.AllocsPerRun(100, func() { h.PinPages(p, vpns) }); allocs != 0 {
		t.Errorf("a quota rejection allocates %v times, want 0", allocs)
	}
}

func TestUnpinPages(t *testing.T) {
	h := newHost(t)
	p := spawn(t, h, 1, 0)
	h.PinPages(p, []units.VPN{5, 6})
	before := h.Clock().Now()
	if err := h.UnpinPages(p, []units.VPN{5, 6}); err != nil {
		t.Fatal(err)
	}
	if got := h.Clock().Now() - before; got != h.Costs().UnpinCost(2) {
		t.Errorf("charged %v, want %v", got, h.Costs().UnpinCost(2))
	}
	if err := h.UnpinPages(p, []units.VPN{5}); err == nil {
		t.Error("unpinning unpinned page should error")
	}
}

func TestInterrupt(t *testing.T) {
	h := newHost(t)
	before := h.Clock().Now()
	taken := h.EnterInterrupt()
	if taken != before || h.Clock().Now()-before != h.Costs().InterruptDispatch {
		t.Errorf("taken at %v, clock +%v: want %v and the dispatch cost", taken, h.Clock().Now()-before, before)
	}
	h.LeaveInterrupt(taken)
	if h.InterruptCount() != 1 {
		t.Errorf("InterruptCount = %d", h.InterruptCount())
	}
}

// TestInterruptRendezvous checks the pair under the overlap engine:
// the host cannot take the interrupt before the device raises it, the
// device resumes when the handler returns, and the recorded span
// covers dispatch plus the handler's host time.
func TestInterruptRendezvous(t *testing.T) {
	h := newHost(t)
	buf := obs.NewBuffer("x")
	h.SetTap(obs.NewTap(buf, 0))
	device := units.NewClock()
	device.Advance(units.FromMicros(50))
	h.SetInterruptSync(device)

	taken := h.EnterInterrupt()
	if taken != device.Now() {
		t.Errorf("interrupt taken at %v, before the device raised it at %v", taken, device.Now())
	}
	h.Clock().Advance(units.FromMicros(7)) // the handler's work
	h.LeaveInterrupt(taken)
	want := h.Costs().InterruptDispatch + units.FromMicros(7)
	if device.Now() != taken+want {
		t.Errorf("device resumed at %v, want %v", device.Now(), taken+want)
	}
	evs := buf.Events()
	if len(evs) != 1 || evs[0].Kind != obs.KindInterrupt || evs[0].Time != taken || evs[0].Dur != want {
		t.Errorf("events = %+v, want one interrupt span [%v, +%v]", evs, taken, want)
	}
}

func TestInterruptDispatchMatchesPaper(t *testing.T) {
	if got := DefaultCosts().InterruptDispatch.Micros(); got != 10.0 {
		t.Errorf("InterruptDispatch = %v us, paper says 10 us", got)
	}
}
