package core

import (
	"utlb/internal/hostos"
	"utlb/internal/units"
)

// treeL2Entries is the fan-out of one second-level lookup-tree node.
const treeL2Entries = 1024

// noIndex marks an invalid tree slot.
const noIndex = -1

// LookupTree is the user-level two-level lookup structure of Figure 1,
// which the per-process UTLB (§3.1) keeps beside its SRAM translation
// table: a page directory whose entries point at second-level tables,
// each entry holding either an invalid marker or the translation-table
// index of a pinned virtual page. Finding an index costs exactly two
// memory references (§3, "Only two memory references are required").
// The directory spans the process' whole address space (VASpacePages),
// like the pin-status bit vector of the hierarchical design. The zero
// value is ready once Reset has bound it to a clock.
type LookupTree struct {
	dir   [VASpacePages / treeL2Entries][]int32 // nil = no leaf yet
	costs hostos.Costs
	clock *units.Clock
	// lo and hi bound the pages Set has written since the last Reset,
	// [lo, hi); every leaf slot outside them is already empty.
	lo, hi int
}

// Reset empties t and binds it to charge lookups to clock. It keeps the
// leaves an earlier use materialised, so a tree recycled from run to
// run allocates only for pages no earlier run reached.
func (t *LookupTree) Reset(costs hostos.Costs, clock *units.Clock) {
	t.costs, t.clock = costs, clock
	for di := t.lo / treeL2Entries; di*treeL2Entries < t.hi; di++ {
		leaf := t.dir[di]
		for i := max(t.lo-di*treeL2Entries, 0); i < min(t.hi-di*treeL2Entries, len(leaf)); i++ {
			leaf[i] = noIndex
		}
	}
	t.lo, t.hi = VASpacePages, 0
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
	t.lo, t.hi = min(t.lo, int(vpn)), max(t.hi, int(vpn)+1)
	leaf[int(vpn)%treeL2Entries] = int32(index)
}

// Clear invalidates vpn's slot.
func (t *LookupTree) Clear(vpn units.VPN) {
	if leaf := t.dir[int(vpn)/treeL2Entries]; leaf != nil {
		leaf[int(vpn)%treeL2Entries] = noIndex
	}
}
