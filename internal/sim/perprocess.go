package sim

import (
	"errors"
	"fmt"
	"slices"

	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// perProcess is the per-process UTLB of §3.1: each process has a
// fixed-size translation table in NIC SRAM and a user-level two-level
// lookup tree that maps its virtual pages to table indices. The host
// side of a record finds each page's index — or pins the page and
// installs it at a free slot, evicting by the replacement policy when
// the table or the pin quota is full — and the firmware indexes the
// table directly: one probe, never a miss. The Shared UTLB-Cache and
// Hierarchical-UTLB exist to overcome this design's SRAM size
// limitation; keeping it reproduces that comparison, which the paper
// itself leaves open (§7).
type perProcess struct {
	r *run
	// garbage is the frame an invalid table slot resolves to.
	garbage units.PFN
	slots   []ppSlot // by process slot; each keeps what its last run grew
	// indices are the table slots of the record being replayed, page by
	// page from first: what the user posts with the request.
	indices []int
	first   units.VPN
}

// ppSlot is one process' per-process UTLB.
type ppSlot struct {
	proc    *hostos.Process
	tree    core.LookupTree
	policy  *core.Policy
	table   []units.PFN // the SRAM translation table; NoPFN = garbage
	free    []int       // free table slots, the next one last
	missing []units.VPN // post's scratch: the pages it must install
	stats   core.LibStats
	// fragPairs of fragTotal adjacent page pairs of multi-page lookups
	// got non-consecutive table slots (§3.3: "after complex data
	// accesses, a user buffer's translations may be scattered in the
	// translation table").
	fragPairs, fragTotal int64
}

// validateTables rejects what a directly indexed table has no way to
// honour: a cache geometry, a miss prefetch, pre-pinning and batching.
func validateTables(cfg Config) error {
	if cfg.CacheEntries < 1 || cfg.Ways != 1 || cfg.IndexOffset ||
		cfg.Prefetch != 1 || cfg.Prepin != 1 || cfg.BatchPages != 1 {
		return errors.New("per-process tables are sized by CacheEntries ≥ 1 and indexed directly: " +
			"Ways, Prefetch, Prepin and BatchPages must be 1 and IndexOffset off")
	}
	return nil
}

func newPerProcess(r *run) (mechanism, int, error) {
	garbage, err := r.host.Memory().Alloc()
	if err != nil {
		return nil, 0, fmt.Errorf("sim: allocating garbage page: %w", err)
	}
	m := &r.scr.perProcess
	*m = perProcess{r: r, garbage: garbage, slots: m.slots[:0], indices: m.indices[:0]}
	return m, 1, nil
}

// attach reserves proc's table in NIC SRAM. The table starts out all
// garbage, so the NIC never needs to validate a user-supplied index
// (§4.2).
func (m *perProcess) attach(i int, proc *hostos.Process) error {
	entries := m.r.cfg.CacheEntries
	if err := m.r.nic.ReserveSRAM(entries * 4); err != nil {
		return fmt.Errorf("sim: reserving per-process table SRAM: %w", err)
	}
	m.slots = slices.Grow(m.slots, 1)[:i+1]
	s := &m.slots[i]
	s.proc, s.stats, s.fragPairs, s.fragTotal = proc, core.LibStats{}, 0, 0
	s.tree.Reset(m.r.host.Costs(), m.r.host.Clock())
	s.policy = m.r.scr.libScratch(i).Policy(m.r.cfg.Policy, m.r.cfg.Seed)
	s.table, s.free = s.table[:0], s.free[:0]
	for j := 0; j < entries; j++ {
		s.table = append(s.table, units.NoPFN)
		s.free = append(s.free, entries-1-j)
	}
	return nil
}

// post is the user-level lookup of slot i: a tree lookup for every page
// of the record, then pin-and-install for the pages without a table
// slot (a check miss). It leaves the record's slots in m.indices.
func (m *perProcess) post(i int, rec trace.Record) error {
	m.indices = m.indices[:0]
	pages := units.PagesSpanned(rec.VA, int(rec.Bytes))
	s := &m.slots[i]
	s.stats.Lookups++
	m.first = rec.VA.PageOf()

	clock := m.r.host.Clock()
	t0 := clock.Now()
	missing := s.missing[:0]
	for j := 0; j < pages; j++ {
		p := m.first + units.VPN(j)
		idx, ok := s.tree.Lookup(p)
		if ok {
			s.policy.Touch(p)
		} else {
			missing, idx = append(missing, p), -1
		}
		m.indices = append(m.indices, idx)
	}
	s.stats.CheckTime += clock.Now() - t0
	s.missing = missing
	if len(missing) == 0 {
		return nil
	}
	s.stats.CheckMisses++

	// The record's pages are in the request being assembled, so no
	// eviction may take one (§3.1): its slot would be reused under the
	// index the user is about to post.
	for j := 0; j < pages; j++ {
		s.policy.Lock(m.first + units.VPN(j))
	}
	defer func() {
		for j := 0; j < pages; j++ {
			s.policy.Unlock(m.first + units.VPN(j))
		}
	}()
	for _, p := range missing {
		idx, err := m.install(s, p)
		if err != nil {
			return err
		}
		s.policy.Lock(p)
		m.indices[p-m.first] = idx
	}
	for j := 1; j < len(m.indices); j++ {
		s.fragTotal++
		if m.indices[j] != m.indices[j-1]+1 {
			s.fragPairs++
		}
	}
	return nil
}

// install pins p and installs its translation at a free table slot,
// evicting while either the table or the pin quota is full.
func (m *perProcess) install(s *ppSlot, p units.VPN) (int, error) {
	clock := m.r.host.Clock()
	for {
		if len(s.free) == 0 {
			// Table full: a capacity miss detected at user level (§3.1).
			if err := m.evict(s); err != nil {
				return 0, err
			}
			continue
		}
		idx := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		t0 := clock.Now()
		pfns, err := m.r.host.PinPages(s.proc, []units.VPN{p})
		s.stats.PinTime += clock.Now() - t0
		if err == nil {
			s.stats.PagesPinned++
			s.table[idx] = pfns[0]
			s.tree.Set(p, idx)
			s.policy.Insert(p)
			return idx, nil
		}
		s.free = append(s.free, idx)
		if !errors.Is(err, vm.ErrPinLimit) {
			return 0, err
		}
		if err := m.evict(s); err != nil {
			return 0, err
		}
	}
}

// evict unpins the policy's victim and frees its table slot.
func (m *perProcess) evict(s *ppSlot) error {
	victim, ok := s.policy.Victim()
	if !ok {
		return core.ErrNoVictim
	}
	idx, ok := s.tree.Lookup(victim)
	if !ok {
		return fmt.Errorf("sim: victim page %#x has no table slot", victim)
	}
	clock := m.r.host.Clock()
	t0 := clock.Now()
	err := m.r.host.UnpinPages(s.proc, []units.VPN{victim})
	s.stats.UnpinTime += clock.Now() - t0
	if err != nil {
		return err
	}
	s.stats.PagesUnpinned++
	s.table[idx] = units.NoPFN
	s.tree.Clear(victim)
	s.policy.Remove(victim)
	s.free = append(s.free, idx)
	return nil
}

// translate is the NIC side of Figure 2, step 2: "obtain physical
// addresses by directly indexing the translation table" at the slots
// the user posted — one SRAM probe, no cache. An out-of-range or
// invalid index resolves to the garbage frame (§4.2).
func (m *perProcess) translate(i int, vpns []units.VPN, infos []core.TranslateInfo) error {
	table := m.slots[i].table
	for j, vpn := range vpns {
		m.r.nic.ChargeProbes(1)
		pfn := m.garbage
		if idx := m.indices[vpn-m.first]; idx >= 0 && idx < len(table) && table[idx] != units.NoPFN {
			pfn = table[idx]
		}
		m.r.scr.pfns[j], infos[j] = pfn, core.TranslateInfo{Hit: true, Probes: 1}
	}
	return nil
}

func (m *perProcess) finish(res *Result) {
	for i := range m.slots {
		res.addLib(m.slots[i].stats)
	}
}

// fragmentation is the share of adjacent-page slot pairs that were not
// consecutive across s's multi-page lookups: the table fragmentation
// Hierarchical-UTLB removes by construction, since virtual addresses
// index its table directly.
func (s *ppSlot) fragmentation() float64 { return rate(s.fragPairs, s.fragTotal) }
