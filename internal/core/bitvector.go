package core

import (
	"fmt"

	"utlb/internal/hostos"
	"utlb/internal/units"
)

// VASpacePages is the page bound of a process' address space, which
// every per-page structure here is sized by (units.VASpacePages).
const VASpacePages = units.VASpacePages

// BitVector is the Hierarchical-UTLB user-level lookup structure: one
// bit of pin status per virtual page (§3.3, "The user-level library
// only needs a bit array to maintain the memory-pinning status of
// virtual pages"). Check charges the host clock following the cost
// mechanics the paper measures in Table 1: whole-word probes on the
// fast path, per-bit tests plus a misalignment penalty on the slow one,
// so the measured cost varies with the first bit's position.
type BitVector struct {
	words []uint64
	costs hostos.Costs
	clock *units.Clock
	// miss backs Check's result; valid until the next Check. Callers
	// (Lib.Lookup) consume it before checking again.
	miss []units.VPN
	// lo and hi bound the words Set has written since the last Reset,
	// [lo, hi): a run touches a few of the vector's 16 K words, and
	// Reset clears only those.
	lo, hi int
}

// NewBitVector returns a pin-status vector covering pages virtual
// pages, charging check costs to clock.
func NewBitVector(pages int, costs hostos.Costs, clock *units.Clock) *BitVector {
	if pages <= 0 || pages > VASpacePages {
		panic(fmt.Sprintf("core: bit vector over %d pages", pages))
	}
	words := make([]uint64, (pages+63)/64)
	return &BitVector{words: words, costs: costs, clock: clock, lo: len(words)}
}

// Pages reports the vector's coverage in pages.
func (b *BitVector) Pages() int { return len(b.words) * 64 }

// Reset clears every pin bit and rebinds the cost model and clock,
// recycling the vector's backing store for a fresh run.
func (b *BitVector) Reset(costs hostos.Costs, clock *units.Clock) {
	if b.lo < b.hi {
		clear(b.words[b.lo:b.hi])
	}
	b.lo, b.hi = len(b.words), 0
	b.costs = costs
	b.clock = clock
	b.miss = b.miss[:0]
}

func (b *BitVector) bounds(vpn units.VPN, n int) {
	if n < 0 || int(vpn)+n > b.Pages() {
		panic(fmt.Sprintf("core: bit range [%d,+%d) outside vector of %d pages", vpn, n, b.Pages()))
	}
}

// Set marks pages [vpn, vpn+n) pinned. Bookkeeping writes are part of
// the surrounding ioctl's cost and charge no extra time.
func (b *BitVector) Set(vpn units.VPN, n int) {
	b.bounds(vpn, n)
	if n > 0 {
		b.lo = min(b.lo, int(vpn)/64)
		b.hi = max(b.hi, (int(vpn)+n-1)/64+1)
	}
	for i := 0; i < n; i++ {
		p := int(vpn) + i
		b.words[p/64] |= 1 << (p % 64)
	}
}

// Clear marks pages [vpn, vpn+n) unpinned.
func (b *BitVector) Clear(vpn units.VPN, n int) {
	b.bounds(vpn, n)
	for i := 0; i < n; i++ {
		p := int(vpn) + i
		b.words[p/64] &^= 1 << (p % 64)
	}
}

// Get reports the pin bit for one page without charging time (used by
// internal bookkeeping and tests).
func (b *BitVector) Get(vpn units.VPN) bool {
	b.bounds(vpn, 1)
	return b.words[vpn/64]&(1<<(vpn%64)) != 0
}

// Check is the user-level lookup of Figure 2, step 1: test whether all
// n pages starting at vpn are pinned. It returns the unpinned pages in
// ascending order (nil when the check hits) and charges the host clock.
// The returned slice is owned by the vector and overwritten by the next
// Check.
//
// Cost mechanics: entering the procedure costs UserCallOverhead. When
// the range starts word-aligned and every touched word is all-ones, the
// fast path pays one word probe per word. Otherwise the scan drops to
// the slow path: a misalignment penalty plus a bit test per page.
func (b *BitVector) Check(vpn units.VPN, n int) []units.VPN {
	b.bounds(vpn, n)
	cost := b.costs.UserCallOverhead
	if n == 0 {
		b.clock.Advance(cost)
		return nil
	}

	aligned := vpn%64 == 0
	firstWord := int(vpn) / 64
	lastWord := int(vpn+units.VPN(n)-1) / 64
	wordsTouched := lastWord - firstWord + 1

	fullWords := true
	for w := firstWord; w <= lastWord; w++ {
		if b.words[w] != ^uint64(0) {
			fullWords = false
			break
		}
	}
	if aligned && fullWords {
		// Fast path: whole-word compares only.
		b.clock.Advance(cost + units.Time(wordsTouched)*b.costs.BitWordProbe)
		return nil
	}

	// Slow path: fetch the words, then test bit by bit.
	cost += units.Time(wordsTouched) * b.costs.BitWordProbe
	if !aligned {
		cost += b.costs.BitMisalign
	}
	cost += units.Time(n) * b.costs.BitTest
	b.clock.Advance(cost)

	missing := b.miss[:0]
	for i := 0; i < n; i++ {
		p := vpn + units.VPN(i)
		if !b.Get(p) {
			missing = append(missing, p)
		}
	}
	b.miss = missing
	if len(missing) == 0 {
		return nil
	}
	return missing
}
