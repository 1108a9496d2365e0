// Package core implements the paper's primary contribution: the
// User-managed TLB. It contains the user-level lookup structures (the
// pin-status bit vector of Hierarchical-UTLB and the two-level lookup
// tree of the per-process UTLB), the host-resident hierarchical
// translation table, the device driver that pins pages and installs
// translations, the NIC-side translator that services lookups out of
// the Shared UTLB-Cache, and the user-selectable replacement policies
// that decide which pages to unpin under memory pressure (§3.4).
package core

import (
	"fmt"
	"math/rand"
	"slices"

	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// PolicyKind selects one of the five predefined replacement policies
// the paper offers applications (§3.4).
type PolicyKind int

// The predefined policies.
const (
	LRU PolicyKind = iota
	MRU
	LFU
	MFU
	Random
)

func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case MRU:
		return "MRU"
	case LFU:
		return "LFU"
	case MFU:
		return "MFU"
	case Random:
		return "RANDOM"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// pageMeta is one tracked page's state.
type pageMeta struct {
	vpn   units.VPN
	seq   int64 // last-use stamp (LRU/MRU), insertion stamp for ties
	freq  int64 // use count (LFU/MFU)
	locks int
}

// Policy tracks the set of pinned pages of one process and selects
// eviction victims, by one of the predefined kinds. The user-level
// library must only evict pages with no outstanding transfer, so Victim
// skips pages the caller has locked (see Lock/Unlock).
//
// Selection is a deterministic scan: page footprints are a few thousand
// entries and eviction happens far less often than Touch, so an O(n)
// victim scan keeps every policy trivially correct. The
// tracked pages sit by value in one compact slice, so the scan walks
// exactly Len entries however large an earlier run grew a recycled
// policy; a page-indexed tlbcache.PageMap maps each page to its
// position, and Remove fills the hole with the last entry. The slice's
// order does not reach a result: the victim orderings below are total
// (seq stamps are unique, ties fall to the lower VPN) and RANDOM sorts
// its candidates before drawing.
type Policy struct {
	kind  PolicyKind
	index tlbcache.PageMap[int32] // page → position in pages
	pages []pageMeta
	tick  int64
	seed  int64
	rng   *rand.Rand  // RANDOM only, seeded on first draw
	cand  []units.VPN // randomVictim's reused candidate buffer
}

// newPolicy returns a replacement policy of the given kind. seed drives
// the RANDOM policy and is ignored by the others. Callers outside the
// package draw one from a LibScratch.
func newPolicy(kind PolicyKind, seed int64) *Policy {
	p := &Policy{}
	p.reset(kind, seed)
	return p
}

// reset empties p and rebinds it as a fresh policy of the given kind,
// keeping its storage (LibScratch recycles one policy per process
// slot).
func (p *Policy) reset(kind PolicyKind, seed int64) {
	p.kind, p.seed, p.tick, p.rng = kind, seed, 0, nil
	p.index.Reset()
	p.pages = p.pages[:0]
}

// meta returns vpn's entry for in-place update, or nil when untracked.
func (p *Policy) meta(vpn units.VPN) *pageMeta {
	if at := p.index.Ref(vpn); at != nil {
		return &p.pages[*at]
	}
	return nil
}

// Kind reports which predefined policy this is.
func (p *Policy) Kind() PolicyKind { return p.kind }

// Touch records a use of vpn. Unknown pages are ignored.
func (p *Policy) Touch(vpn units.VPN) {
	if m := p.meta(vpn); m != nil {
		p.tick++
		m.seq = p.tick
		m.freq++
	}
}

// Insert adds a newly pinned page to the tracked set.
func (p *Policy) Insert(vpn units.VPN) {
	if at, fresh := p.index.Ensure(vpn); fresh {
		p.tick++
		*at = int32(len(p.pages))
		p.pages = append(p.pages, pageMeta{vpn: vpn, seq: p.tick, freq: 1})
	}
}

// Remove drops an unpinned page from the tracked set.
func (p *Policy) Remove(vpn units.VPN) {
	ref := p.index.Ref(vpn)
	if ref == nil {
		return
	}
	at, last := *ref, int32(len(p.pages)-1)
	p.index.Delete(vpn)
	if at != last {
		p.pages[at] = p.pages[last]
		*p.index.Ref(p.pages[at].vpn) = at
	}
	p.pages = p.pages[:last]
}

// Contains reports whether vpn is tracked.
func (p *Policy) Contains(vpn units.VPN) bool { return p.meta(vpn) != nil }

// Len reports how many pages are tracked.
func (p *Policy) Len() int { return len(p.pages) }

// Lock marks vpn as ineligible for eviction (outstanding send);
// Unlock reverses it. Locks nest.
func (p *Policy) Lock(vpn units.VPN) {
	if m := p.meta(vpn); m != nil {
		m.locks++
	}
}

func (p *Policy) Unlock(vpn units.VPN) {
	if m := p.meta(vpn); m != nil && m.locks > 0 {
		m.locks--
	}
}

// Victim selects a page to evict, or ok=false when every tracked page
// is locked (or none is tracked). The victim stays tracked until Remove.
func (p *Policy) Victim() (units.VPN, bool) {
	if p.kind == Random {
		return p.randomVictim()
	}
	var better func(m, cur *pageMeta) bool
	switch p.kind {
	case LRU:
		better = func(m, cur *pageMeta) bool { return m.seq < cur.seq }
	case MRU:
		better = func(m, cur *pageMeta) bool { return m.seq > cur.seq }
	case LFU:
		better = func(m, cur *pageMeta) bool {
			return m.freq < cur.freq || (m.freq == cur.freq && m.seq < cur.seq)
		}
	case MFU:
		better = func(m, cur *pageMeta) bool {
			return m.freq > cur.freq || (m.freq == cur.freq && m.seq < cur.seq)
		}
	default:
		panic(fmt.Sprintf("core: victim for unknown policy %v", p.kind))
	}
	var best *pageMeta
	for i := range p.pages {
		m := &p.pages[i]
		if m.locks > 0 {
			continue
		}
		if best == nil || better(m, best) || (sameOrder(m, best) && m.vpn < best.vpn) {
			best = m
		}
	}
	if best == nil {
		return 0, false
	}
	return best.vpn, true
}

// sameOrder reports whether two pages compare equal under the active
// ordering, in which case the lower VPN wins for determinism.
func sameOrder(a, b *pageMeta) bool { return a.seq == b.seq && a.freq == b.freq }

func (p *Policy) randomVictim() (units.VPN, bool) {
	// Deterministic under a fixed seed: collect unlocked pages in VPN
	// order (their order in pages depends on history), then pick one
	// uniformly.
	candidates := p.cand[:0]
	for i := range p.pages {
		if p.pages[i].locks == 0 {
			candidates = append(candidates, p.pages[i].vpn)
		}
	}
	p.cand = candidates
	if len(candidates) == 0 {
		return 0, false
	}
	slices.Sort(candidates)
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	return candidates[p.rng.Intn(len(candidates))], true
}
