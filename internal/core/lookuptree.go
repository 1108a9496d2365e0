package core

import (
	"utlb/internal/hostos"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// LookupTree is the user-level two-level lookup structure of Figure 1,
// which the per-process UTLB (§3.1) keeps beside its SRAM translation
// table: a page directory whose entries point at second-level tables,
// each entry holding either an invalid marker or the translation-table
// index of a pinned virtual page. Finding an index costs exactly two
// memory references (§3, "Only two memory references are required").
// The simulator's page-indexed table, tlbcache.PageMap, has that shape
// and holds the indices. The zero value is ready once Reset has bound
// it to a clock.
type LookupTree struct {
	pages tlbcache.PageMap[int32]
	costs hostos.Costs
	clock *units.Clock
}

// Reset empties t and binds it to charge lookups to clock. Like the
// PageMap under it, it keeps its leaves, so a tree recycled from run to
// run allocates only for pages no earlier run reached.
func (t *LookupTree) Reset(costs hostos.Costs, clock *units.Clock) {
	t.costs, t.clock = costs, clock
	t.pages.Reset()
}

// Lookup reports the translation-table index of vpn, or ok=false. The
// two-reference cost (directory + leaf) is charged per call.
func (t *LookupTree) Lookup(vpn units.VPN) (index int, ok bool) {
	t.clock.Advance(2 * t.costs.BitWordProbe)
	if p := t.pages.Ref(vpn); p != nil {
		return int(*p), true
	}
	return 0, false
}

// Set records vpn→index.
func (t *LookupTree) Set(vpn units.VPN, index int) {
	p, _ := t.pages.Ensure(vpn)
	*p = int32(index)
}

// Clear invalidates vpn's slot.
func (t *LookupTree) Clear(vpn units.VPN) { t.pages.Delete(vpn) }
