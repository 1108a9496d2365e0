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

// callCost is what one call over vpns charges on a fresh host: pin
// (ioctl or in-kernel) then unpin, each measured off the clock.
func callCost(t *testing.T, vpns []units.VPN, kernel bool) (pin, unpin units.Time) {
	t.Helper()
	h := newHost(t)
	p := spawn(t, h, 1, 0)
	pinF, unpinF := h.PinPages, h.UnpinPages
	if kernel {
		pinF, unpinF = h.PinPagesInKernel, h.UnpinPagesInKernel
	}
	if _, err := pinF(p, vpns); err != nil {
		t.Fatal(err)
	}
	pin = h.Clock().Now()
	if err := unpinF(p, vpns); err != nil {
		t.Fatal(err)
	}
	return pin, h.Clock().Now() - pin
}

func pages(n int) []units.VPN {
	vpns := make([]units.VPN, n)
	for i := range vpns {
		vpns[i] = units.VPN(i)
	}
	return vpns
}

// Table 1 calibration: what one pin or unpin ioctl charges must land
// near the paper's measurements (within 15%).
func TestPinUnpinCostCalibration(t *testing.T) {
	paperPin := map[int]float64{1: 27, 2: 30, 4: 36, 8: 47, 16: 70, 32: 115}
	paperUnpin := map[int]float64{1: 25, 2: 30, 4: 36, 8: 50, 16: 80, 32: 139}
	within := func(got, want float64) bool {
		return math.Abs(got-want)/want < 0.15
	}
	for n := range paperPin {
		pin, unpin := callCost(t, pages(n), false)
		if !within(pin.Micros(), paperPin[n]) {
			t.Errorf("pin(%d) = %.1fus, paper %.0fus", n, pin.Micros(), paperPin[n])
		}
		if !within(unpin.Micros(), paperUnpin[n]) {
			t.Errorf("unpin(%d) = %.1fus, paper %.0fus", n, unpin.Micros(), paperUnpin[n])
		}
	}
}

func TestZeroPageCosts(t *testing.T) {
	for _, kernel := range []bool{false, true} {
		if pin, unpin := callCost(t, nil, kernel); pin != 0 || unpin != 0 {
			t.Errorf("kernel %v: a call over no pages charged %v and %v", kernel, pin, unpin)
		}
	}
}

func TestKernelCostsSkipDomainCrossing(t *testing.T) {
	pin, unpin := callCost(t, pages(4), false)
	kpin, kunpin := callCost(t, pages(4), true)
	if c := DefaultCosts(); kpin != pin-c.SyscallEntry || kunpin != unpin-c.SyscallEntry {
		t.Errorf("in-kernel pin %v and unpin %v, want the ioctls' %v and %v less the syscall entry", kpin, kunpin, pin, unpin)
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
	c := h.Costs()
	if charged := h.Clock().Now() - before; charged != c.SyscallEntry+c.PinBase+3*c.PinPerPage {
		t.Errorf("charged %v, want the syscall entry, the pin base and 3 pages", charged)
	}
	for row, want := range map[units.Row]units.Line{
		units.RowPinSyscall: {Count: 1, Total: c.SyscallEntry},
		units.RowPin:        {Count: 1, Total: c.PinBase},
		units.RowPinPage:    {Count: 3, Total: 3 * c.PinPerPage},
	} {
		if got := h.Clock().Line(row); got != want {
			t.Errorf("row %d = %+v, want %+v", row, got, want)
		}
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
	if c := h.Costs(); h.Clock().Now()-before != c.SyscallEntry+c.UnpinBase+2*c.UnpinPerPage {
		t.Errorf("charged %v, want the syscall entry, the unpin base and 2 pages", h.Clock().Now()-before)
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
	device.AdvanceTo(units.FromMicros(50))
	h.SetInterruptSync(device)

	taken := h.EnterInterrupt()
	if taken != device.Now() {
		t.Errorf("interrupt taken at %v, before the device raised it at %v", taken, device.Now())
	}
	h.Clock().Charge(units.RowPin, 1, units.FromMicros(7)) // the handler's work
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
