package hostos

import (
	"errors"
	"strings"
	"testing"

	"utlb/internal/fault"
	"utlb/internal/obs"
	"utlb/internal/phys"
	"utlb/internal/units"
	"utlb/internal/vm"
)

func countKind(evs []obs.Event, k obs.Kind) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// A pin that hits organic frame exhaustion must trigger the reclaimer,
// take frames back from unpinned pages, and succeed on retry — the
// tentpole wiring: Reclaim used to exist but nothing invoked it.
func TestPinReclaimsAndRetriesOnFrameExhaustion(t *testing.T) {
	h := New(0, 8*units.PageSize, DefaultCosts()) // 8 physical frames
	hog := spawn(t, h, 1, 0)
	pinner := spawn(t, h, 2, 0)

	// The hog maps every frame without pinning: all reclaimable.
	for vpn := units.VPN(0); vpn < 8; vpn++ {
		if _, err := hog.Space().Touch(vpn); err != nil {
			t.Fatal(err)
		}
	}
	if h.Memory().FreeFrames() != 0 {
		t.Fatalf("FreeFrames = %d, want 0", h.Memory().FreeFrames())
	}

	pfns, err := h.PinPages(pinner, []units.VPN{100, 101, 102})
	if err != nil {
		t.Fatalf("pin under pressure failed despite reclaimable pages: %v", err)
	}
	if len(pfns) != 3 {
		t.Fatalf("pfns = %v", pfns)
	}
	if h.Reclaims() == 0 {
		t.Error("Reclaims = 0, want at least one reclaimer pass")
	}
	if h.FramesReclaimed() < 3 {
		t.Errorf("FramesReclaimed = %d, want >= 3", h.FramesReclaimed())
	}
	if h.PinRetries() == 0 {
		t.Error("PinRetries = 0, want at least one retried attempt")
	}
}

// The acceptance scenario: an injected frame-exhaustion fault on the
// pin path is absorbed by a reclaim-and-retry round, the pin succeeds,
// and the timeline records the fault, the reclaimer pass, and the
// retry.
func TestPinSurvivesInjectedExhaustionWithObsEvents(t *testing.T) {
	h := New(0, 16*units.MB, DefaultCosts())
	rec := obs.NewBuffer("test")
	h.SetTap(obs.NewTap(rec, 0))
	hog := spawn(t, h, 1, 0)
	pinner := spawn(t, h, 2, 0)
	if _, err := hog.Space().Touch(50); err != nil { // reclaim fodder
		t.Fatal(err)
	}

	// Schedule: fire on even-numbered checks (Every:2) — the first
	// page's pin (check 1) is clean, the second page's first attempt
	// (check 2) faults, and its retry (check 3) succeeds.
	inj := fault.NewInjector(1, fault.Plan{
		fault.SiteHostPin: {Every: 2},
	})
	h.SetPinFault(inj.Point(fault.SiteHostPin))

	if _, err := h.PinPages(pinner, []units.VPN{10, 11}); err != nil {
		t.Fatalf("pin did not survive injected exhaustion: %v", err)
	}
	if !pinner.Space().Pinned(10) || !pinner.Space().Pinned(11) {
		t.Error("pages not pinned after retry")
	}
	if h.Reclaims() != 1 || h.PinRetries() != 1 {
		t.Errorf("Reclaims = %d, PinRetries = %d, want 1 and 1", h.Reclaims(), h.PinRetries())
	}
	if got := inj.FiredAt(fault.SiteHostPin); got != 1 {
		t.Errorf("FiredAt = %d, want 1", got)
	}
	evs := rec.Events()
	for _, want := range []obs.Kind{obs.KindFaultPin, obs.KindReclaim, obs.KindPinRetry} {
		if countKind(evs, want) != 1 {
			t.Errorf("%v events = %d, want 1", want, countKind(evs, want))
		}
	}
}

// When every pin attempt faults and nothing is reclaimable, the error
// must come back (wrapping both the exhaustion and the injection
// sentinel) instead of looping forever.
func TestPinGivesUpWhenNothingReclaimable(t *testing.T) {
	h := New(0, 16*units.MB, DefaultCosts())
	pinner := spawn(t, h, 1, 0)
	inj := fault.NewInjector(1, fault.Plan{
		fault.SiteHostPin: {Every: 1}, // every attempt faults
	})
	h.SetPinFault(inj.Point(fault.SiteHostPin))

	_, err := h.PinPages(pinner, []units.VPN{10})
	if !errors.Is(err, phys.ErrOutOfMemory) {
		t.Fatalf("err = %v, want phys.ErrOutOfMemory", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want fault.ErrInjected in the chain", err)
	}
	if h.PinRetries() != 0 {
		t.Errorf("PinRetries = %d, want 0 (reclaim freed nothing)", h.PinRetries())
	}
}

// Regression for the duplicate-VPN rollback audit: a VPN listed twice
// is pinned twice, so a later failure must unpin it twice — pin counts
// return exactly to zero.
func TestPinRollbackWithDuplicateVPNs(t *testing.T) {
	h := newHost(t)
	p := spawn(t, h, 1, 1) // quota of one distinct page
	_, err := h.PinPages(p, []units.VPN{7, 7, 8})
	if !errors.Is(err, vm.ErrPinLimit) {
		t.Fatalf("err = %v, want ErrPinLimit", err)
	}
	if got := p.Space().(*vm.Space).PinCount(7); got != 0 {
		t.Errorf("PinCount(7) = %d after rollback, want 0", got)
	}
	if p.Space().PinnedPages() != 0 {
		t.Errorf("PinnedPages = %d after rollback, want 0", p.Space().PinnedPages())
	}
}

// failingSpace pins the first page, fails the second, and refuses to
// unpin — the worst case the rollback path can meet.
type failingSpace struct {
	pins int
}

func (s *failingSpace) PID() units.ProcID { return 9 }
func (s *failingSpace) Pin(vpn units.VPN) (units.PFN, error) {
	if s.pins > 0 {
		return units.NoPFN, errors.New("space broken")
	}
	s.pins++
	return units.PFN(1), nil
}
func (s *failingSpace) Unpin(units.VPN) error                  { return errors.New("unpin broken") }
func (s *failingSpace) Translate(units.VPN) (units.PFN, error) { return units.PFN(1), nil }
func (s *failingSpace) Touch(units.VPN) (units.PFN, error)     { return units.PFN(1), nil }
func (s *failingSpace) PinnedPages() int                       { return s.pins }
func (s *failingSpace) Pinned(units.VPN) bool                  { return false }

// A rollback whose unpins also fail must report the combined error —
// this used to panic the whole simulation.
func TestPinRollbackFailureIsAnErrorNotAPanic(t *testing.T) {
	h := newHost(t)
	p, err := h.Spawn(9, "broken", &failingSpace{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.PinPages(p, []units.VPN{1, 2})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "rollback unpin also failed") {
		t.Errorf("err = %v, want rollback failure reported", err)
	}
}
