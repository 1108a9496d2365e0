package core

import (
	"errors"
	"fmt"

	"utlb/internal/hostos"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// This file implements the Per-process UTLB of §3.1: a fixed-size
// translation table allocated directly in network interface memory,
// plus the user-level two-level lookup tree that maps virtual pages to
// translation-table indices. The Shared UTLB-Cache (§3.2) and
// Hierarchical-UTLB (§3.3) exist to overcome this design's SRAM size
// limitation; keeping the original design lets us reproduce that
// comparison (a limitation the paper itself lists in §7).

// treeL2Entries is the fan-out of one second-level lookup-tree node.
const treeL2Entries = 1024

// noIndex marks an invalid tree slot.
const noIndex = -1

// LookupTree is the user-level two-level lookup structure of Figure 1:
// a page directory whose entries point at second-level tables, each
// entry holding either an invalid marker or the UTLB translation-table
// index of a pinned virtual page. Finding an index costs exactly two
// memory references (§3, "Only two memory references are required").
// The directory spans the process' whole address space (VASpacePages),
// like the pin-status bit vector of the hierarchical design.
type LookupTree struct {
	dir   [VASpacePages / treeL2Entries][]int32 // nil = no leaf yet
	costs hostos.Costs
	clock *units.Clock
}

// NewLookupTree returns an empty tree charging lookups to clock.
func NewLookupTree(costs hostos.Costs, clock *units.Clock) *LookupTree {
	return &LookupTree{costs: costs, clock: clock}
}

// Lookup reports the translation-table index of vpn, or ok=false. The
// two-reference cost (directory + leaf) is charged per call.
func (t *LookupTree) Lookup(vpn units.VPN) (index int, ok bool) {
	t.clock.Advance(2 * t.costs.BitWordProbe)
	leaf := t.dir[int(vpn)/treeL2Entries]
	if leaf == nil {
		return 0, false
	}
	idx := leaf[int(vpn)%treeL2Entries]
	if idx == noIndex {
		return 0, false
	}
	return int(idx), true
}

// Set records vpn→index, materialising the leaf on demand.
func (t *LookupTree) Set(vpn units.VPN, index int) {
	di := int(vpn) / treeL2Entries
	leaf := t.dir[di]
	if leaf == nil {
		leaf = make([]int32, treeL2Entries)
		for i := range leaf {
			leaf[i] = noIndex
		}
		t.dir[di] = leaf
	}
	leaf[int(vpn)%treeL2Entries] = int32(index)
}

// Clear invalidates vpn's slot.
func (t *LookupTree) Clear(vpn units.VPN) {
	if leaf := t.dir[int(vpn)/treeL2Entries]; leaf != nil {
		leaf[int(vpn)%treeL2Entries] = noIndex
	}
}

// PerProcessUTLB is one process' complete per-process UTLB: the SRAM
// translation table, the user-level lookup tree, the replacement
// policy, and the counters the comparison experiments read.
type PerProcessUTLB struct {
	drv    *Driver
	proc   *hostos.Process
	tree   *LookupTree
	policy Policy

	entries int
	table   []units.PFN // NIC SRAM translation table; NoPFN = garbage
	owner   []units.VPN // which vpn each slot translates
	free    []int
	missing []units.VPN // Lookup's scratch: the pages it must install

	stats LibStats
	// Fragmentation probes: how many free-slot searches were needed.
	slotSearches int64
	// Fragmentation accounting (§3.3: "after complex data accesses, a
	// user buffer's translations may be scattered in the translation
	// table") — adjacent page pairs whose table slots are not adjacent.
	fragPairs int64
	fragTotal int64
}

// NewPerProcessUTLB registers proc and reserves a translation table of
// the given size in NIC SRAM. The table is initialised to the garbage
// frame, so the NIC never needs to validate user-supplied indices.
func NewPerProcessUTLB(drv *Driver, proc *hostos.Process, entries int, cfg LibConfig) (*PerProcessUTLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("core: per-process table of %d entries", entries)
	}
	if _, err := drv.Register(proc); err != nil {
		return nil, err
	}
	if err := drv.NIC().ReserveSRAM(entries * 4); err != nil {
		return nil, fmt.Errorf("core: reserving per-process table SRAM: %w", err)
	}
	host := drv.Host()
	u := &PerProcessUTLB{
		drv:     drv,
		proc:    proc,
		tree:    NewLookupTree(host.Costs(), host.Clock()),
		policy:  NewPolicy(cfg.Policy, cfg.PolicySeed),
		entries: entries,
		table:   make([]units.PFN, entries),
		owner:   make([]units.VPN, entries),
		free:    make([]int, 0, entries),
	}
	for i := range u.table {
		u.table[i] = units.NoPFN
	}
	for i := entries - 1; i >= 0; i-- {
		u.free = append(u.free, i)
	}
	return u, nil
}

// Entries reports the translation table size.
func (u *PerProcessUTLB) Entries() int { return u.entries }

// Stats returns the cumulative counters.
func (u *PerProcessUTLB) Stats() LibStats { return u.stats }

// Lookup resolves [va, va+nbytes): tree lookups for every page, and
// pin-install for the ones without entries, evicting via the policy
// when the table is full (a capacity miss detected at user level).
// It returns the translation-table indices of the buffer's pages.
func (u *PerProcessUTLB) Lookup(va units.VAddr, nbytes int) ([]int, error) {
	pages := units.PagesSpanned(va, nbytes)
	if pages == 0 {
		return nil, nil
	}
	u.stats.Lookups++
	vpn := va.PageOf()
	indices := make([]int, pages)

	host := u.drv.Host()
	t0 := host.Clock().Now()
	missing := u.missing[:0]
	for i := 0; i < pages; i++ {
		p := vpn + units.VPN(i)
		if idx, ok := u.tree.Lookup(p); ok {
			indices[i] = idx
			u.policy.Touch(p)
		} else {
			missing = append(missing, p)
			indices[i] = noIndex
		}
	}
	u.stats.CheckTime += host.Clock().Now() - t0
	u.missing = missing
	if len(missing) == 0 {
		return indices, nil
	}
	u.stats.CheckMisses++

	for _, p := range missing {
		idx, err := u.installOne(p)
		if err != nil {
			return nil, err
		}
		for i := 0; i < pages; i++ {
			if vpn+units.VPN(i) == p {
				indices[i] = idx
			}
		}
	}
	u.recordFragmentation(indices)
	return indices, nil
}

// recordFragmentation tallies how scattered a multi-page buffer's
// table slots are: each adjacent page pair whose slots are not
// consecutive counts as fragmented.
func (u *PerProcessUTLB) recordFragmentation(indices []int) {
	for i := 1; i < len(indices); i++ {
		u.fragTotal++
		if indices[i] != indices[i-1]+1 {
			u.fragPairs++
		}
	}
}

// Fragmentation reports the fraction of adjacent-page slot pairs that
// were non-consecutive across all multi-page lookups — the table
// fragmentation Hierarchical-UTLB eliminates by construction (virtual
// addresses index the table directly).
func (u *PerProcessUTLB) Fragmentation() float64 {
	if u.fragTotal == 0 {
		return 0
	}
	return float64(u.fragPairs) / float64(u.fragTotal)
}

// installOne pins p and installs its translation at a free table slot,
// evicting when either the table or the pin quota is full.
func (u *PerProcessUTLB) installOne(p units.VPN) (int, error) {
	host := u.drv.Host()
	for {
		idx, ok := u.takeSlot()
		if !ok {
			// Table full: user-level capacity miss (§3.1). Evict.
			if err := u.evictOne(); err != nil {
				return 0, err
			}
			continue
		}
		t0 := host.Clock().Now()
		pfns, err := u.drv.IoctlPin(u.proc, []units.VPN{p})
		u.stats.PinTime += host.Clock().Now() - t0
		if err == nil {
			u.stats.PagesPinned++
			u.table[idx] = pfns[0]
			u.owner[idx] = p
			u.tree.Set(p, idx)
			u.policy.Insert(p)
			return idx, nil
		}
		u.free = append(u.free, idx)
		if !errors.Is(err, vm.ErrPinLimit) {
			return 0, err
		}
		if err := u.evictOne(); err != nil {
			return 0, err
		}
	}
}

func (u *PerProcessUTLB) takeSlot() (int, bool) {
	u.slotSearches++
	if len(u.free) == 0 {
		return 0, false
	}
	idx := u.free[len(u.free)-1]
	u.free = u.free[:len(u.free)-1]
	return idx, true
}

func (u *PerProcessUTLB) evictOne() error {
	victim, ok := u.policy.Victim()
	if !ok {
		return ErrNoVictim
	}
	idx, ok := u.tree.Lookup(victim)
	if !ok {
		return fmt.Errorf("core: victim page %#x has no table slot", victim)
	}
	host := u.drv.Host()
	t0 := host.Clock().Now()
	err := u.drv.IoctlUnpin(u.proc, []units.VPN{victim})
	u.stats.UnpinTime += host.Clock().Now() - t0
	if err != nil {
		return err
	}
	u.stats.PagesUnpinned++
	u.table[idx] = units.NoPFN
	u.tree.Clear(victim)
	u.policy.Remove(victim)
	u.free = append(u.free, idx)
	return nil
}

// Translate is the NIC-side path of Figure 2, step 2 on the interface:
// "obtain physical addresses by directly indexing the translation
// table" — one SRAM probe, no cache involved. Out-of-range or invalid
// indices resolve to the garbage frame (§4.2).
func (u *PerProcessUTLB) Translate(index int) units.PFN {
	nic := u.drv.NIC()
	nic.ChargeProbes(1)
	if index < 0 || index >= u.entries || u.table[index] == units.NoPFN {
		return u.drv.Garbage()
	}
	return u.table[index]
}
