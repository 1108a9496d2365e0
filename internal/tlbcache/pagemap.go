package tlbcache

import (
	"fmt"
	"math/bits"

	"utlb/internal/units"
)

// PageMap is one process' page-indexed table, the shape of the
// Hierarchical-UTLB's own host table (core.Table): a directory
// indexed by vpn >> leafShift points to fixed leaves of leafLen values
// and a leafLen-bit live bitmap. A lookup is one directory load, one
// bitmap word and the value beside it, with no hash and no probe
// chain, and consecutive pages sit in consecutive slots.
//
// It is the simulator's one page-keyed table: a vm.Space's page table
// (V = pageInfo), a replacement policy's page → position index and
// trace.StackDistances' per-process page → latest reference index
// (V = int32). VPNs are
// bounded by units.VASpacePages; any other VPN panics.
//
// Leaves are allocated on first touch. Reset clears only the leaves
// touched since the last Reset and keeps them for reuse, so a table
// recycled across runs allocates nothing once it has held its largest
// footprint. Each walks in directory order, which is ascending VPN
// whatever the table's history.
//
// The zero value is an empty table. A PageMap is not safe for
// concurrent use; give each goroutine its own (sim.RunScratch holds
// one set per worker).
type PageMap[V any] struct {
	dir   [dirLen]*leaf[V]
	used  []uint16   // directory slots holding a leaf, in touch order
	spare []*leaf[V] // cleared leaves for the next first touch
	n     int
}

// Leaf geometry: 2^10 pages per leaf, so 1024 directory slots cover
// the address space.
const (
	leafShift = 10
	leafLen   = 1 << leafShift
	dirLen    = units.VASpacePages >> leafShift
)

type leaf[V any] struct {
	live [leafLen / 64]uint64
	vals [leafLen]V
}

// Len reports the number of resident entries.
func (m *PageMap[V]) Len() int { return m.n }

// Reset empties the table, keeping every leaf for reuse.
func (m *PageMap[V]) Reset() {
	for _, di := range m.used {
		clear(m.dir[di].live[:])
		m.spare = append(m.spare, m.dir[di])
		m.dir[di] = nil
	}
	m.used = m.used[:0]
	m.n = 0
}

// slot splits vpn into its directory slot and its index in the leaf.
func slot(vpn units.VPN) (di, i int) {
	if vpn >= units.VASpacePages {
		outsideSpace(vpn)
	}
	return int(vpn >> leafShift), int(vpn) & (leafLen - 1)
}

// outsideSpace is kept out of line so that slot inlines.
//
//go:noinline
func outsideSpace(vpn units.VPN) {
	panic(fmt.Sprintf("tlbcache: vpn %#x outside %d-page space", vpn, units.VASpacePages))
}

// has reports whether index i holds an entry.
func (l *leaf[V]) has(i int) bool { return l.live[i>>6]&(1<<(i&63)) != 0 }

// Ref returns a pointer to vpn's value for in-place update, or nil
// when vpn is absent. The pointer is valid until the next Reset.
func (m *PageMap[V]) Ref(vpn units.VPN) *V {
	di, i := slot(vpn)
	if l := m.dir[di]; l != nil && l.has(i) {
		return &l.vals[i]
	}
	return nil
}

// Ensure returns a pointer to vpn's value, first inserting the zero
// value when vpn is absent (fresh reports that it did). The pointer is
// valid until the next Reset.
func (m *PageMap[V]) Ensure(vpn units.VPN) (v *V, fresh bool) {
	di, i := slot(vpn)
	l := m.dir[di]
	if l == nil {
		if n := len(m.spare); n > 0 {
			l, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			l = new(leaf[V])
		}
		m.dir[di] = l
		m.used = append(m.used, uint16(di))
	}
	if l.has(i) {
		return &l.vals[i], false
	}
	l.live[i>>6] |= 1 << (i & 63)
	var zero V
	l.vals[i] = zero
	m.n++
	return &l.vals[i], true
}

// Delete removes vpn, reporting whether it was present. Its leaf stays
// until Reset.
func (m *PageMap[V]) Delete(vpn units.VPN) bool {
	di, i := slot(vpn)
	l := m.dir[di]
	if l == nil || !l.has(i) {
		return false
	}
	l.live[i>>6] &^= 1 << (i & 63)
	m.n--
	return true
}

// Each calls fn on every entry in ascending VPN order; fn must not
// Ensure or Delete.
func (m *PageMap[V]) Each(fn func(units.VPN, *V)) {
	for di, l := range m.dir {
		if l == nil {
			continue
		}
		for w, word := range l.live {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				fn(units.VPN(di<<leafShift|i), &l.vals[i])
			}
		}
	}
}
