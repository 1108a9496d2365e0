package sim

import (
	"errors"
	"fmt"

	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/tlbcache"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// interrupt is the interrupt-based translation baseline the paper
// compares UTLB against (§6.2): the UNet-MM-style design where the
// network interface interrupts the host on every translation-cache
// miss, and the host — already in its interrupt handler, so with no
// protection-domain crossing — pins the page and installs the
// translation directly into the NIC cache. Its two defining differences
// from UTLB are both the paper's:
//
//   - there is no user-level check and no host-resident translation
//     table, so the host side of a record is empty and every miss costs
//     an interrupt;
//   - "the interrupt-based approach always unpins a page that is
//     evicted from the network interface translation cache", so the
//     pinned set equals the cached set and evictions churn pins.
type interrupt struct {
	r *run
	// cache has the geometry of the UTLB under comparison, as in the
	// paper: "we assume that the cache structures are the same for both
	// cases".
	cache *tlbcache.Cache
	procs []intrProc // by process slot

	lookups, pins, unpins int64
}

// intrProc is one process slot of the baseline.
type intrProc struct {
	proc   *hostos.Process
	policy *core.Policy // LRU over the process' pinned (== cached) pages
}

func newInterrupt(r *run) (mechanism, int, error) {
	cache := tlbcache.NewWith(r.cfg.cacheConfig(), r.scr.storage())
	if err := r.nic.ReserveSRAM(cache.SRAMBytes()); err != nil {
		return nil, 0, fmt.Errorf("sim: reserving cache SRAM: %w", err)
	}
	cache.SetTap(r.tap, r.nic.Clock())
	m := &r.scr.interrupt
	*m = interrupt{r: r, cache: cache, procs: m.procs[:0]}
	return m, 1, nil
}

func (m *interrupt) attach(i int, proc *hostos.Process) error {
	policy := m.r.scr.libScratch(i).Policy(core.LRU, int64(proc.PID()))
	m.procs = append(m.procs, intrProc{proc: proc, policy: policy})
	return nil
}

func (m *interrupt) post(int, trace.Record) error {
	m.lookups++
	return nil
}

// translate probes the cache for each page and, on a miss, interrupts
// the host to pin and install it. The probe is charged to the NIC
// clock; the interrupt and all pin and unpin work to the host clock.
func (m *interrupt) translate(s int, vpns []units.VPN, infos []core.TranslateInfo) error {
	if s < 0 {
		return fmt.Errorf("sim: no process slot %d", s)
	}
	host := m.r.host
	for i, vpn := range vpns {
		key := tlbcache.Key{PID: m.r.pids[s], VPN: vpn}
		res := core.Probe(m.r.nic, m.cache, m.r.tap, key, true)
		if res.Hit {
			m.procs[s].policy.Touch(vpn)
			m.r.scr.pfns[i], infos[i] = res.PFN, core.TranslateInfo{Hit: true}
			continue
		}
		taken := host.EnterInterrupt()
		pfn, err := m.handleMiss(s, key)
		host.LeaveInterrupt(taken)
		if err != nil {
			return err
		}
		m.r.scr.pfns[i], infos[i] = pfn, core.TranslateInfo{}
	}
	return nil
}

// handleMiss runs in host kernel context: pin the page, install its
// translation, and unpin whatever the installation displaced — possibly
// another process' page, since the cache is shared.
func (m *interrupt) handleMiss(s int, key tlbcache.Key) (units.PFN, error) {
	pfn, err := m.pin(s, key.VPN)
	if err != nil {
		return units.NoPFN, err
	}
	if evicted, was := m.cache.Insert(key, pfn); was {
		if err := m.unpin(m.r.slot(evicted.PID), evicted.VPN); err != nil {
			return units.NoPFN, err
		}
	}
	return pfn, nil
}

// pin pins vpn for slot s, unpinning the process' LRU page for as long
// as its quota is full.
func (m *interrupt) pin(s int, vpn units.VPN) (units.PFN, error) {
	p := &m.procs[s]
	for {
		pfns, err := m.r.host.PinPagesInKernel(p.proc, []units.VPN{vpn})
		if err == nil {
			m.pins++
			p.policy.Insert(vpn)
			return pfns[0], nil
		}
		if !errors.Is(err, vm.ErrPinLimit) {
			return units.NoPFN, err
		}
		victim, ok := p.policy.Victim()
		if !ok {
			return units.NoPFN, core.ErrNoVictim
		}
		if err := m.unpin(s, victim); err != nil {
			return units.NoPFN, err
		}
	}
}

// unpin unpins slot s's page vpn and drops it from the cache.
func (m *interrupt) unpin(s int, vpn units.VPN) error {
	p := &m.procs[s]
	if err := m.r.host.UnpinPagesInKernel(p.proc, []units.VPN{vpn}); err != nil {
		return err
	}
	m.unpins++
	p.policy.Remove(vpn)
	m.cache.Invalidate(tlbcache.Key{PID: p.proc.PID(), VPN: vpn})
	return nil
}

// finish reports the whole interrupt handler — dispatch, pins and the
// unpins of displaced entries, all the host work of this design — as
// its pin time.
func (m *interrupt) finish(res *Result) {
	res.Lookups, res.NIMisses = m.lookups, m.cache.Misses()
	res.Pins, res.Unpins, res.PinTime = m.pins, m.unpins, m.r.host.Clock().Busy()
}
