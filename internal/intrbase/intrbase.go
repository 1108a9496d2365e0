// Package intrbase implements the interrupt-based address-translation
// baseline the paper compares UTLB against (§6.2): the UNet-MM-style
// design where the network interface interrupts the host processor on
// every translation-cache miss, and the host — already in its
// interrupt handler, so with no protection-domain crossing — pins the
// page and installs the translation directly into the NIC cache.
//
// The defining behavioural differences from UTLB, both taken from the
// paper:
//
//   - there is no user-level check and no host-resident translation
//     table, so every miss costs an interrupt;
//   - "the interrupt-based approach always unpins a page that is
//     evicted from the network interface translation cache", so the
//     pinned set equals the cached set and evictions churn pins.
package intrbase

import (
	"errors"
	"fmt"

	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// Stats are the baseline's cumulative counters (Table 4's Intr rows).
type Stats struct {
	Lookups       int64
	Misses        int64 // NI translation-cache misses == interrupts
	PagesPinned   int64
	PagesUnpinned int64
	// HandlerTime is total host time spent in the interrupt handler
	// (dispatch + kernel pin/unpin work).
	HandlerTime units.Time
}

type procState struct {
	proc   *hostos.Process
	policy core.Policy // mirrors the process' pinned == cached pages
}

// Mechanism is one node's interrupt-based translation machinery.
type Mechanism struct {
	host  *hostos.Host
	nic   *nicsim.NIC
	cache *tlbcache.Cache
	procs []*procState // registration order; a node hosts a handful of processes

	stats Stats

	// tap records the firmware's probe phase; nil — the default —
	// records nothing.
	tap *obs.Tap
}

// New builds the baseline on host/nic with the given cache geometry
// (kept identical to the UTLB configuration under comparison, as the
// paper does: "we assume that the cache structures are the same for
// both cases").
func New(host *hostos.Host, nic *nicsim.NIC, cacheCfg tlbcache.Config) (*Mechanism, error) {
	return NewWith(host, nic, cacheCfg, nil)
}

// NewWith is New with the cache built over st, recycling one run's
// cache line arrays into the next (nil allocates fresh).
func NewWith(host *hostos.Host, nic *nicsim.NIC, cacheCfg tlbcache.Config, st *tlbcache.Storage) (*Mechanism, error) {
	if err := cacheCfg.Validate(); err != nil {
		return nil, err
	}
	cache := tlbcache.NewWith(cacheCfg, st)
	if err := nic.ReserveSRAM(cache.SRAMBytes()); err != nil {
		return nil, fmt.Errorf("intrbase: reserving cache SRAM: %w", err)
	}
	return &Mechanism{host: host, nic: nic, cache: cache}, nil
}

// Register adds a process to the mechanism.
func (m *Mechanism) Register(proc *hostos.Process) error {
	return m.RegisterWith(proc, &core.LibScratch{})
}

// RegisterWith is Register with the process' pinned-page policy drawn
// from scr, recycling one run's page table into the next.
func (m *Mechanism) RegisterWith(proc *hostos.Process, scr *core.LibScratch) error {
	pid := proc.PID()
	if m.state(pid) != nil {
		return fmt.Errorf("intrbase: pid %d already registered", pid)
	}
	m.procs = append(m.procs, &procState{proc: proc, policy: scr.Policy(core.LRU, int64(pid))})
	return nil
}

// state returns pid's registration, or nil.
func (m *Mechanism) state(pid units.ProcID) *procState {
	for _, st := range m.procs {
		if st.proc.PID() == pid {
			return st
		}
	}
	return nil
}

// Stats returns the cumulative counters.
func (m *Mechanism) Stats() Stats { return m.stats }

// SetTap attaches the recording handle to the mechanism and the cache
// it owns, which stamps its events on the NIC clock. nil detaches.
func (m *Mechanism) SetTap(t *obs.Tap) {
	m.tap = t
	m.cache.SetTap(t, m.nic.Clock())
}

// Cache returns the NIC translation cache.
func (m *Mechanism) Cache() *tlbcache.Cache { return m.cache }

// Translate resolves (pid, vpn), interrupting the host on a miss, and
// reports whether the NIC cache hit. The NIC lookup cost is charged to
// the NIC clock; the interrupt and all pin/unpin work are charged to
// the host clock.
func (m *Mechanism) Translate(pid units.ProcID, vpn units.VPN) (pfn units.PFN, hit bool, err error) {
	st := m.state(pid)
	if st == nil {
		return units.NoPFN, false, fmt.Errorf("intrbase: pid %d not registered", pid)
	}
	m.stats.Lookups++

	key := tlbcache.Key{PID: pid, VPN: vpn}
	res := core.Probe(m.nic, m.cache, m.tap, key, true)
	if res.Hit {
		st.policy.Touch(vpn)
		return res.PFN, true, nil
	}
	m.stats.Misses++

	// Miss: interrupt the host; the handler pins and installs.
	t0 := m.host.Clock().Now()
	taken := m.host.EnterInterrupt()
	pfn, err = m.handleMiss(st, key)
	m.host.LeaveInterrupt(taken)
	m.stats.HandlerTime += m.host.Clock().Now() - t0
	if err != nil {
		return units.NoPFN, false, err
	}
	return pfn, false, nil
}

// handleMiss runs in host kernel context: pin the page (evicting under
// quota pressure), install the translation, and unpin whatever the
// installation displaced.
func (m *Mechanism) handleMiss(st *procState, key tlbcache.Key) (units.PFN, error) {
	var pfn units.PFN
	for {
		pfns, err := m.host.PinPagesInKernel(st.proc, []units.VPN{key.VPN})
		if err == nil {
			pfn = pfns[0]
			break
		}
		if !errors.Is(err, vm.ErrPinLimit) {
			return units.NoPFN, err
		}
		// Quota full: unpin this process' LRU page.
		victim, ok := st.policy.Victim()
		if !ok {
			return units.NoPFN, core.ErrNoVictim
		}
		if err := m.unpin(st, victim); err != nil {
			return units.NoPFN, err
		}
	}
	m.stats.PagesPinned++
	st.policy.Insert(key.VPN)

	evicted, was := m.cache.Insert(key, pfn)
	if was {
		// Eviction means immediate unpin — possibly of another
		// process' page in this shared cache.
		owner := m.state(evicted.PID)
		if owner == nil {
			return units.NoPFN, fmt.Errorf("intrbase: evicted entry for unknown pid %d", evicted.PID)
		}
		if err := m.unpin(owner, evicted.VPN); err != nil {
			return units.NoPFN, err
		}
	}
	return pfn, nil
}

func (m *Mechanism) unpin(st *procState, vpn units.VPN) error {
	if err := m.host.UnpinPagesInKernel(st.proc, []units.VPN{vpn}); err != nil {
		return err
	}
	m.stats.PagesUnpinned++
	st.policy.Remove(vpn)
	m.cache.Invalidate(tlbcache.Key{PID: st.proc.PID(), VPN: vpn})
	return nil
}

// Lock and Unlock mark a page ineligible for forced unpinning while a
// transfer is outstanding, mirroring the UTLB library's obligation.
func (m *Mechanism) Lock(pid units.ProcID, vpn units.VPN) {
	if st := m.state(pid); st != nil {
		st.policy.Lock(vpn)
	}
}

// Unlock reverses Lock.
func (m *Mechanism) Unlock(pid units.ProcID, vpn units.VPN) {
	if st := m.state(pid); st != nil {
		st.policy.Unlock(vpn)
	}
}
