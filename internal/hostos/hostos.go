// Package hostos simulates the host side of one cluster node: processes
// with virtual address spaces, the system-call and interrupt machinery,
// and the kernel page-pinning facility the UTLB device driver uses.
//
// The paper's measurements were taken on 300 MHz Pentium-II PCs running
// Windows NT 4.0 (with an equivalent Linux port). We reproduce those
// machines as a cost model: every primitive the UTLB host path executes
// (bitmap word probes, ioctl entry, per-page pin work, interrupt
// dispatch) charges calibrated time to the host clock, so composite
// costs land near the paper's Table 1 and Section 6.2 numbers.
package hostos

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"utlb/internal/fault"
	"utlb/internal/obs"
	"utlb/internal/phys"
	"utlb/internal/units"
)

// Costs is the host-side cost model. All values are simulated durations
// of single primitives; composite operations are built from them.
type Costs struct {
	// SyscallEntry is the user→kernel protection-domain crossing paid
	// once per ioctl (pin or unpin request).
	SyscallEntry units.Time
	// PinBase is the fixed kernel cost of a pin ioctl before per-page
	// work (argument validation, table lookup, lock acquisition).
	PinBase units.Time
	// PinPerPage is the incremental kernel cost of pinning each page.
	PinPerPage units.Time
	// UnpinBase and UnpinPerPage mirror PinBase/PinPerPage for unpin.
	UnpinBase    units.Time
	UnpinPerPage units.Time
	// UserCallOverhead is the fixed cost of entering the user-level
	// UTLB library lookup procedure.
	UserCallOverhead units.Time
	// BitWordProbe is the cost of fetching and testing one word of the
	// user-level pin-status bit vector.
	BitWordProbe units.Time
	// BitTest is the cost of testing a single bit on the slow path.
	BitTest units.Time
	// BitMisalign is the extra slow-path cost paid when the checked
	// range does not start on a bitmap word boundary.
	BitMisalign units.Time
	// InterruptDispatch is the cost for the NIC to interrupt the host
	// and enter the kernel handler (the paper measures 10 µs).
	InterruptDispatch units.Time
	// ReclaimBase is the fixed cost of one reclaimer pass (entering
	// the reclaimer, snapshotting the process list, lock traffic) —
	// paid even when the scan evicts nothing.
	ReclaimBase units.Time
	// ReclaimPerScanned is the cost of examining one mapped page
	// during a reclaim scan (metadata probe + pin check), charged for
	// every page visited whether or not it is evicted. Evicted frames
	// additionally pay PinPerPage of unmapping work.
	ReclaimPerScanned units.Time
}

// DefaultCosts returns the cost model calibrated against the paper's
// measurements on the Pentium-II/NT cluster:
//
//	pin(1 page) ≈ 27 µs, pin(32) ≈ 115 µs   (Table 1)
//	unpin(1) ≈ 25 µs, unpin(32) ≈ 139 µs    (Table 1)
//	check min ≈ 0.2 µs, max ≈ 0.4–0.7 µs    (Table 1)
//	user-level check ≈ 0.5 µs typical        (§6.2)
//	interrupt dispatch ≈ 10 µs               (§6.2)
func DefaultCosts() Costs {
	return Costs{
		SyscallEntry:      units.FromMicros(2.0),
		PinBase:           units.FromMicros(22.2),
		PinPerPage:        units.FromMicros(2.84),
		UnpinBase:         units.FromMicros(19.3),
		UnpinPerPage:      units.FromMicros(3.70),
		UserCallOverhead:  units.FromMicros(0.15),
		BitWordProbe:      units.FromMicros(0.05),
		BitTest:           units.FromMicros(0.0085),
		BitMisalign:       units.FromMicros(0.18),
		InterruptDispatch: units.FromMicros(10.0),
		ReclaimBase:       units.FromMicros(4.0),
		ReclaimPerScanned: units.FromMicros(0.12),
	}
}

// PinCost reports the full cost of one pin ioctl covering pages pages,
// including the protection-domain crossing. Pinning a buffer all at once
// is significantly cheaper per page than one page at a time, which is
// what makes the paper's sequential pre-pinning policy (§6.5) pay off.
func (c Costs) PinCost(pages int) units.Time {
	if pages <= 0 {
		return 0
	}
	return c.SyscallEntry + c.PinBase + units.Time(pages)*c.PinPerPage
}

// UnpinCost reports the full cost of one unpin ioctl covering pages pages.
func (c Costs) UnpinCost(pages int) units.Time {
	if pages <= 0 {
		return 0
	}
	return c.SyscallEntry + c.UnpinBase + units.Time(pages)*c.UnpinPerPage
}

// KernelPinCost is PinCost without the protection-domain crossing: the
// cost when the kernel is already entered, as in the interrupt-based
// baseline where pinning happens inside the interrupt handler. The paper
// notes "once in the interrupt handler, pin or unpin requires no
// protection domain crossing".
func (c Costs) KernelPinCost(pages int) units.Time {
	if pages <= 0 {
		return 0
	}
	return c.PinBase + units.Time(pages)*c.PinPerPage
}

// KernelUnpinCost mirrors KernelPinCost for unpin.
func (c Costs) KernelUnpinCost(pages int) units.Time {
	if pages <= 0 {
		return 0
	}
	return c.UnpinBase + units.Time(pages)*c.UnpinPerPage
}

// Process is one user process on a host.
type Process struct {
	pid   units.ProcID
	name  string
	space Space
	// pinErr is the process' reused pin failure, made by its first one:
	// a process that is never refused a pin never pays for it (by value
	// it would be 32 bytes of every run's every process).
	pinErr *PinError
}

// Space is the part of vm.Space the host needs. Declared as an
// interface so tests can substitute failure-injecting spaces.
type Space interface {
	PID() units.ProcID
	Pin(units.VPN) (units.PFN, error)
	Unpin(units.VPN) error
	Translate(units.VPN) (units.PFN, error)
	Touch(units.VPN) (units.PFN, error)
	PinnedPages() int
	Pinned(units.VPN) bool
}

// PID reports the process identifier.
func (p *Process) PID() units.ProcID { return p.pid }

// Name reports the process' display name.
func (p *Process) Name() string { return p.name }

// Space returns the process' address space.
func (p *Process) Space() Space { return p.space }

// Host is one cluster node's host side: CPU clock, physical memory,
// processes, and the kernel services the UTLB driver needs.
type Host struct {
	id    units.NodeID
	clock *units.Clock
	mem   *phys.Memory
	costs Costs
	procs []*Process // ascending PID; a node hosts a handful of processes

	// interrupts counts device interrupts delivered to this host.
	interrupts int64

	// tap records pin/unpin ioctls, reclaimer passes and interrupts as
	// spans on the host clock; nil — the default — records nothing.
	tap *obs.Tap
	// device, when non-nil, is the interrupting device's clock, which
	// Interrupt synchronises with.
	device *units.Clock

	// pinFault, when armed, makes pin attempts fail with injected
	// frame exhaustion (nil — the default — never fires).
	pinFault *fault.Point
	// pinScratch is pinLocked's reused result buffer: every pin ioctl
	// returns a frame list, and all callers consume it before the next
	// pin (the slice is only valid that long).
	pinScratch []units.PFN
	// Reclaim/retry counters (reclaim.go accessors).
	reclaims        int64
	framesReclaimed int64
	pinRetries      int64
}

// New returns a host with the given node id, memory size in bytes, and
// cost model.
func New(id units.NodeID, memBytes int64, costs Costs) *Host {
	return NewWith(id, phys.NewMemory(memBytes), costs)
}

// NewWith is New over a caller-owned memory, recycling one run's frame
// arrays into the next (the caller has Reset it to the wanted size).
func NewWith(id units.NodeID, mem *phys.Memory, costs Costs) *Host {
	return &Host{id: id, clock: units.NewClock(), mem: mem, costs: costs}
}

// ID reports the node identifier.
func (h *Host) ID() units.NodeID { return h.id }

// Clock returns the host CPU clock.
func (h *Host) Clock() *units.Clock { return h.clock }

// Memory returns the host physical memory.
func (h *Host) Memory() *phys.Memory { return h.mem }

// Costs returns the host cost model.
func (h *Host) Costs() Costs { return h.costs }

// SetTap attaches the recording handle (nil detaches).
func (h *Host) SetTap(t *obs.Tap) { h.tap = t }

// SetInterruptSync makes interrupts a rendezvous with the device whose
// clock is given (the overlap engine): the host cannot service an
// interrupt before the device asserts it, and the device blocks until
// the handler returns on the host's own timeline. nil — the sequential
// charging model — leaves the two clocks independent.
func (h *Host) SetInterruptSync(device *units.Clock) { h.device = device }

// SetPinFault arms the injected frame-exhaustion fault on the pin
// path (fault.SiteHostPin). nil — the default — disables injection.
func (h *Host) SetPinFault(p *fault.Point) { h.pinFault = p }

// Spawn creates a process with the given pid and name, backed by space
// (which carries its own pinned-page quota), and registers it.
func (h *Host) Spawn(pid units.ProcID, name string, space Space) (*Process, error) {
	i, found := h.find(pid)
	if found {
		return nil, fmt.Errorf("hostos: pid %d already exists on node %d", pid, h.id)
	}
	p := &Process{pid: pid, name: name, space: space}
	h.procs = slices.Insert(h.procs, i, p)
	return p, nil
}

// find locates pid in h.procs: its index, or where Spawn would insert it.
func (h *Host) find(pid units.ProcID) (int, bool) {
	return slices.BinarySearchFunc(h.procs, pid, func(p *Process, pid units.ProcID) int {
		return cmp.Compare(p.pid, pid)
	})
}

// Process returns the process with the given pid, or nil.
func (h *Host) Process(pid units.ProcID) *Process {
	if i, found := h.find(pid); found {
		return h.procs[i]
	}
	return nil
}

// Processes reports how many processes are registered.
func (h *Host) Processes() int { return len(h.procs) }

// PinPages is the kernel pin facility invoked through the UTLB ioctl:
// it charges the syscall plus per-page cost, pins every page in vpns,
// and returns the physical frames. On a quota failure it unpins the
// pages it already pinned and reports the error; time for the attempted
// work is still charged, as it would be on a real machine.
func (h *Host) PinPages(p *Process, vpns []units.VPN) ([]units.PFN, error) {
	return h.pin(p, vpns, h.costs.PinCost(len(vpns)), obs.KindPin)
}

// PinPagesInKernel is PinPages without the protection-domain crossing,
// used by the interrupt-based baseline inside its interrupt handler.
func (h *Host) PinPagesInKernel(p *Process, vpns []units.VPN) ([]units.PFN, error) {
	return h.pin(p, vpns, h.costs.KernelPinCost(len(vpns)), obs.KindKernelPin)
}

// pin is both pin facilities: it charges cost, pins vpns and records
// the call as a kind span covering everything it charged.
func (h *Host) pin(p *Process, vpns []units.VPN, cost units.Time, kind obs.Kind) ([]units.PFN, error) {
	start := h.clock.Now()
	h.clock.Advance(cost)
	pfns, err := h.pinLocked(p, vpns)
	h.tap.Span(kind, start, h.clock.Now()-start, p.pid, uint64(len(vpns)), 0)
	return pfns, err
}

// PinError is a failed pin ioctl: the page it stopped at, the process
// and the cause, which Unwrap exposes to errors.Is. A pin-quota
// rejection is control flow — the library answers it by evicting a
// victim and pinning again, tens of thousands of times in a pin-limited
// run — so the text is built only if someone asks for it, and the value
// is the host's own, one per process: like the frame list, it is valid
// until the process' next pin call, and a caller that keeps it longer
// formats it first.
type PinError struct {
	VPN units.VPN
	PID units.ProcID
	Err error
}

func (e *PinError) Error() string {
	return fmt.Sprintf("hostos: pin page %#x for pid %d: %v", e.VPN, e.PID, e.Err)
}

func (e *PinError) Unwrap() error { return e.Err }

// maxPinAttempts bounds how many reclaim-and-retry rounds one page pin
// gets before its frame-exhaustion error is returned to the caller.
const maxPinAttempts = 3

// pinLocked pins vpns in order, rolling everything back on the first
// failure. The returned slice is h.pinScratch: valid until the next
// pin call, which every caller respects by consuming it immediately
// (the driver installs the frames inside the same ioctl). A failure is
// a *PinError, p.pinErr, valid until p's next pin call.
func (h *Host) pinLocked(p *Process, vpns []units.VPN) ([]units.PFN, error) {
	if cap(h.pinScratch) < len(vpns) {
		h.pinScratch = make([]units.PFN, 0, len(vpns))
	}
	pfns := h.pinScratch[:0]
	for i, vpn := range vpns {
		pfn, err := h.pinOne(p, vpn, len(vpns)-i)
		if err != nil {
			// Roll back the pages already pinned. Each successful Pin
			// incremented its page's pin count by exactly one — a VPN
			// appearing twice in vpns was pinned twice — so one Unpin
			// per completed entry restores every count exactly.
			var rerr error
			for _, done := range vpns[:i] {
				if uerr := p.space.Unpin(done); uerr != nil && rerr == nil {
					rerr = uerr
				}
			}
			if p.pinErr == nil {
				p.pinErr = new(PinError)
			}
			*p.pinErr = PinError{VPN: vpn, PID: p.pid, Err: err}
			err = p.pinErr
			if rerr != nil {
				// Reachable under injected faults (a misbehaving
				// space): degrade to a reported error, not a crash.
				err = fmt.Errorf("%w (rollback unpin also failed: %v)", err, rerr)
			}
			return nil, err
		}
		pfns = append(pfns, pfn)
	}
	return pfns, nil
}

// pinOne pins a single page, absorbing transient frame exhaustion:
// when the attempt fails for lack of free frames (organic
// phys.ErrOutOfMemory or an injected fault), the host runs the page
// reclaimer to evict unpinned pages and retries, up to maxPinAttempts
// rounds, charging reclaim work to the host clock. want sizes the
// reclaim request (the remaining pages of the current ioctl). Quota
// errors (vm.ErrPinLimit) are not retried here — freeing the process'
// own quota is the user-level library's eviction policy's job.
func (h *Host) pinOne(p *Process, vpn units.VPN, want int) (units.PFN, error) {
	for attempt := 1; ; attempt++ {
		pfn, err := h.tryPin(p, vpn)
		if err == nil {
			return pfn, nil
		}
		if !errors.Is(err, phys.ErrOutOfMemory) || attempt >= maxPinAttempts {
			return units.NoPFN, err
		}
		// Memory pressure: take frames back from unpinned pages and
		// retry. A pass that frees nothing cannot make the retry
		// succeed, so give up early (degraded but correct).
		if h.Reclaim(want) == 0 {
			return units.NoPFN, err
		}
		h.pinRetries++
		h.tap.Instant(obs.KindPinRetry, h.clock.Now(), p.pid, uint64(attempt), 0)
	}
}

// tryPin is one pin attempt against the space, with the injected
// frame-exhaustion fault applied first. Injected failures wrap
// phys.ErrOutOfMemory so the reclaim-retry path treats them exactly
// like organic exhaustion (and fault.ErrInjected so tests can tell
// them apart).
func (h *Host) tryPin(p *Process, vpn units.VPN) (units.PFN, error) {
	if h.pinFault.Fire() {
		h.tap.Instant(obs.KindFaultPin, h.clock.Now(), p.pid, uint64(vpn), 0)
		return units.NoPFN, fmt.Errorf("hostos: pin page %#x: %w (%w)",
			vpn, phys.ErrOutOfMemory, fault.ErrInjected)
	}
	return p.space.Pin(vpn)
}

// UnpinPages is the kernel unpin facility: charges the ioctl cost and
// unpins every page. Unpinning a page that is not pinned is a caller
// bug and returns an error after charging time.
func (h *Host) UnpinPages(p *Process, vpns []units.VPN) error {
	return h.unpin(p, vpns, h.costs.UnpinCost(len(vpns)), obs.KindUnpin)
}

// UnpinPagesInKernel is UnpinPages without the domain crossing.
func (h *Host) UnpinPagesInKernel(p *Process, vpns []units.VPN) error {
	return h.unpin(p, vpns, h.costs.KernelUnpinCost(len(vpns)), obs.KindKernelUnpin)
}

// unpin is both unpin facilities: it charges cost, unpins vpns up to
// the first failure and records the call as a kind span.
func (h *Host) unpin(p *Process, vpns []units.VPN, cost units.Time, kind obs.Kind) (err error) {
	start := h.clock.Now()
	h.clock.Advance(cost)
	for _, vpn := range vpns {
		if err = p.space.Unpin(vpn); err != nil {
			err = fmt.Errorf("hostos: unpin page %#x for pid %d: %w", vpn, p.pid, err)
			break
		}
	}
	h.tap.Span(kind, start, h.clock.Now()-start, p.pid, uint64(len(vpns)), 0)
	return err
}

// EnterInterrupt delivers a device interrupt to the host: it charges
// the dispatch cost and returns when the interrupt was taken, which the
// handler — the caller's next statements, in kernel context — hands to
// LeaveInterrupt. The interrupt-based translation baseline lives on
// this path; UTLB's whole point is to keep off it. The baseline's miss
// handler is the only interrupt of the model and comes through this
// pair, so this is where the two processors meet under the overlap
// engine (a device clock is attached); both waits are AdvanceTo,
// waiting and not work.
func (h *Host) EnterInterrupt() (taken units.Time) {
	h.interrupts++
	if h.device != nil {
		h.clock.AdvanceTo(h.device.Now())
	}
	taken = h.clock.Now()
	h.clock.Advance(h.costs.InterruptDispatch)
	return taken
}

// LeaveInterrupt returns from the handler of the interrupt taken at
// taken. The span covers dispatch plus the handler's own host time
// (interrupt-time pins record nested spans of their own).
func (h *Host) LeaveInterrupt(taken units.Time) {
	h.tap.Span(obs.KindInterrupt, taken, h.clock.Now()-taken, 0, 0, 0)
	if h.device != nil {
		h.device.AdvanceTo(h.clock.Now())
	}
}

// InterruptCount reports how many interrupts this host has taken.
func (h *Host) InterruptCount() int64 { return h.interrupts }
