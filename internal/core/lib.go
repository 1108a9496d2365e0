package core

import (
	"errors"
	"fmt"

	"utlb/internal/hostos"
	"utlb/internal/obs"
	"utlb/internal/phys"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// ErrNoVictim is returned when memory pressure demands an eviction but
// every pinned page is locked by an outstanding transfer.
var ErrNoVictim = errors.New("core: no evictable page (all pinned pages locked)")

// LibConfig parameterises the user-level library.
type LibConfig struct {
	// Policy selects the replacement policy for victim pages.
	Policy PolicyKind
	// PolicySeed drives the RANDOM policy.
	PolicySeed int64
	// Prepin is the sequential pre-pinning width (§6.5): on a check
	// miss, the library pins up to Prepin contiguous pages starting at
	// the missing page. 1 disables pre-pinning.
	Prepin int
	// Scratch, when non-nil, recycles one process slot's buffers
	// across runs (see LibScratch). nil allocates fresh state.
	Scratch *LibScratch
}

// LibScratch recycles one process slot's library state across
// simulation runs: the 128 KB pin-status bit vector — the largest
// per-process allocation of a run — the 20 KB translation-table
// directory, the replacement policy's page table, and the pre-pin
// expansion buffer. The zero value is ready to
// use. A scratch belongs to at most one live process at a time;
// sim.RunScratch keeps one per process slot.
type LibScratch struct {
	bv  *BitVector
	tbl *Table
	pol *Policy
	pin []units.VPN
}

// takeTable hands out the scratch's translation table, emptied and
// rebound, building it on first use.
func (s *LibScratch) takeTable(pid units.ProcID, mem *phys.Memory, garbage units.PFN) *Table {
	if s.tbl == nil {
		s.tbl = NewTable(pid, mem, garbage)
	} else {
		s.tbl.reset(pid, mem, garbage)
	}
	return s.tbl
}

// Policy hands out the scratch's replacement policy, emptied and
// rebound to kind and seed, building it on first use.
func (s *LibScratch) Policy(kind PolicyKind, seed int64) *Policy {
	if s.pol == nil {
		s.pol = newPolicy(kind, seed)
	} else {
		s.pol.reset(kind, seed)
	}
	return s.pol
}

// takeBitVector hands out the scratch's bit vector, cleared, building
// it on first use.
func (s *LibScratch) takeBitVector(costs hostos.Costs, clock *units.Clock) *BitVector {
	if s.bv == nil {
		s.bv = NewBitVector(VASpacePages, costs, clock)
	} else {
		s.bv.Reset(costs, clock)
	}
	return s.bv
}

// LibStats are the user-level library's cumulative counters, the raw
// material of Tables 4, 5 and 7.
type LibStats struct {
	// Lookups counts calls to Lookup (communication operations).
	Lookups int64
	// CheckMisses counts lookups that found at least one unpinned page.
	CheckMisses int64
	// PagesPinned and PagesUnpinned count page-granularity operations.
	PagesPinned   int64
	PagesUnpinned int64
	// PinTime, UnpinTime and CheckTime are the host time spent in each
	// phase, for amortized-cost reporting (Table 7).
	PinTime   units.Time
	UnpinTime units.Time
	CheckTime units.Time
}

// Lib is the user-level UTLB library of one process: it keeps the
// pin-status bit vector, runs the lookup of Figure 2, invokes the pin
// ioctl on check misses, and evicts pages by its replacement policy
// when the OS refuses to pin more memory.
type Lib struct {
	host   *hostos.Host
	drv    *Driver
	proc   *hostos.Process
	bv     *BitVector
	policy *Policy
	prepin int

	// scr.pin backs prepinList's result between Lookup calls so the
	// check-miss path allocates nothing once warm. pinAll only shrinks
	// the slice; nothing retains it past the Lookup that built it. A
	// caller-owned scratch keeps the grown buffer across runs.
	scr *LibScratch

	stats LibStats
}

// NewLib registers proc with the driver and returns its library.
func NewLib(drv *Driver, proc *hostos.Process, cfg LibConfig) (*Lib, error) {
	if cfg.Scratch == nil {
		cfg.Scratch = &LibScratch{}
	}
	if _, err := drv.Register(proc, cfg.Scratch); err != nil {
		return nil, err
	}
	if cfg.Prepin < 1 {
		cfg.Prepin = 1
	}
	host := drv.Host()
	l := &Lib{
		host:   host,
		drv:    drv,
		proc:   proc,
		bv:     cfg.Scratch.takeBitVector(host.Costs(), host.Clock()),
		policy: cfg.Scratch.Policy(cfg.Policy, cfg.PolicySeed),
		prepin: cfg.Prepin,
		scr:    cfg.Scratch,
	}
	return l, nil
}

// Proc returns the owning process.
func (l *Lib) Proc() *hostos.Process { return l.proc }

// Stats returns a copy of the cumulative counters.
func (l *Lib) Stats() LibStats { return l.stats }

// PinnedPages reports how many pages the library currently has pinned.
func (l *Lib) PinnedPages() int { return l.policy.Len() }

// Pinned reports whether the library believes vpn is pinned.
func (l *Lib) Pinned(vpn units.VPN) bool { return l.bv.Get(vpn) }

// Lock marks the pages of [va, va+n) ineligible for eviction while a
// transfer is outstanding; Unlock releases them. The user-level
// library "must only select virtual pages that will not be involved in
// any outstanding send requests" (§3.1).
func (l *Lib) Lock(va units.VAddr, n int) {
	for i, vpn := 0, va.PageOf(); i < units.PagesSpanned(va, n); i++ {
		l.policy.Lock(vpn + units.VPN(i))
	}
}

// Unlock reverses Lock.
func (l *Lib) Unlock(va units.VAddr, n int) {
	for i, vpn := 0, va.PageOf(); i < units.PagesSpanned(va, n); i++ {
		l.policy.Unlock(vpn + units.VPN(i))
	}
}

// Lookup is the user-program flow of Figure 2: check the bit vector
// for [va, va+nbytes), and pin-and-install any missing pages (with
// sequential pre-pinning) before the request may be posted to the NIC.
// After Lookup returns, every page of the buffer is pinned and has a
// valid entry in the process' translation table.
func (l *Lib) Lookup(va units.VAddr, nbytes int) error {
	pages := units.PagesSpanned(va, nbytes)
	if pages == 0 {
		return nil
	}
	vpn := va.PageOf()
	l.stats.Lookups++

	t0 := l.host.Clock().Now()
	missing := l.bv.Check(vpn, pages)
	check := l.host.Clock().Now() - t0
	l.stats.CheckTime += check
	kind := obs.KindCheckHit
	if len(missing) > 0 {
		kind = obs.KindCheckMiss
	}
	l.drv.tap.Span(kind, t0, check, l.proc.PID(), uint64(pages), 0)

	for i := 0; i < pages; i++ {
		l.policy.Touch(vpn + units.VPN(i))
	}
	if len(missing) == 0 {
		return nil
	}
	l.stats.CheckMisses++

	toPin := l.prepinList(missing)
	if err := l.pinAll(va, nbytes, toPin); err != nil {
		return err
	}
	return nil
}

// prepinList expands the missing pages by the sequential pre-pinning
// policy: for each missing page, pin up to prepin contiguous pages
// starting there, skipping pages already pinned or already scheduled.
//
// missing is ascending (BitVector.Check's contract), so "already
// scheduled" reduces to a high-water mark: every page below the end of
// the previous expansion was already considered, and a page skipped for
// being pinned then is still pinned now. That keeps the expansion
// map-free, and the result lives in scr.pin — zero allocations once
// the scratch has grown to the process' working width.
func (l *Lib) prepinList(missing []units.VPN) []units.VPN {
	list := l.scr.pin[:0]
	next := units.VPN(0) // first page no earlier expansion has considered
	for _, m := range missing {
		p := m
		if p < next {
			p = next
		}
		for ; p < m+units.VPN(l.prepin); p++ {
			if p >= VASpacePages || l.bv.Get(p) {
				continue
			}
			list = append(list, p)
		}
		if end := m + units.VPN(l.prepin); end > next {
			next = end
		}
	}
	l.scr.pin = list
	return list
}

// pinAll pins list via the driver, evicting victims one page at a time
// (§6.5: "unpinning is still done one page at a time") whenever the OS
// reports the pin quota full. The pages of the triggering buffer are
// locked so eviction never tears down the request being assembled.
func (l *Lib) pinAll(va units.VAddr, nbytes int, list []units.VPN) error {
	if len(list) == 0 {
		return nil
	}
	l.Lock(va, nbytes)
	defer l.Unlock(va, nbytes)

	for {
		t0 := l.host.Clock().Now()
		_, err := l.drv.IoctlPin(l.proc, list)
		l.stats.PinTime += l.host.Clock().Now() - t0
		if err == nil {
			l.stats.PagesPinned += int64(len(list))
			for _, p := range list {
				l.bv.Set(p, 1)
				l.policy.Insert(p)
			}
			return nil
		}
		if !errors.Is(err, vm.ErrPinLimit) && !errors.Is(err, phys.ErrOutOfMemory) {
			return fmt.Errorf("core: pinning %d pages: %w", len(list), err)
		}
		// Capacity: evict one victim and retry. If the request alone
		// exceeds the quota, shrink it from the tail — the lookup's own
		// pages must win over speculative pre-pins. Frame exhaustion
		// that survived the host's reclaim-retry gets the same
		// treatment: unpinning a victim makes its frame reclaimable on
		// the next attempt's reclaim pass.
		if err := l.evictOne(); err != nil {
			if len(list) > 1 {
				list = list[:len(list)-1]
				continue
			}
			return err
		}
	}
}

// evictOne unpins one victim chosen by the replacement policy.
func (l *Lib) evictOne() error {
	victim, ok := l.policy.Victim()
	if !ok {
		return ErrNoVictim
	}
	t0 := l.host.Clock().Now()
	err := l.drv.IoctlUnpin(l.proc, []units.VPN{victim})
	l.stats.UnpinTime += l.host.Clock().Now() - t0
	if err != nil {
		return fmt.Errorf("core: evicting page %#x: %w", victim, err)
	}
	l.stats.PagesUnpinned++
	l.bv.Clear(victim, 1)
	l.policy.Remove(victim)
	return nil
}
