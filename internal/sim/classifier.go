package sim

import (
	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// classifier assigns each NIC translation-cache miss to one of Hill's
// three categories (§3.2 cites [23]):
//
//	compulsory — first reference to the (process, page) pair;
//	capacity   — also misses in a fully-associative LRU cache of the
//	             same total size;
//	conflict   — everything else (would have hit fully-associative).
//
// The shadow fully-associative cache is updated on every reference,
// hit or miss, so its LRU state tracks the reference stream exactly.
//
// Layout: this sits on the simulator's per-page inner loop, so the
// bookkeeping is one page-indexed lookup and zero per-key heap
// allocations. Every (process, page) ever seen owns one node in a
// grow-only slab of index-linked nodes; the node doubles as the "seen"
// record (nodes are never reclaimed, only unlinked from the LRU list
// on eviction). Each process slot has a tlbcache.PageMap from page to
// node, and reset() recycles the maps and the slab across runs.
type classifier struct {
	capacity int
	pages    []*tlbcache.PageMap[int32] // by process slot
	nodes    []clsNode
	head     int32 // most recent, nilSlot when empty
	tail     int32 // least recent
	size     int   // resident nodes
}

type clsNode struct {
	prev, next int32
	resident   bool
}

const nilSlot = int32(-1)

func newClassifier(capacity, slots int) *classifier {
	c := &classifier{}
	c.reset(capacity, slots)
	return c
}

// reset readies the classifier for a fresh run of slots processes over
// the same backing arrays; capacity may differ between runs.
func (c *classifier) reset(capacity, slots int) {
	c.capacity = capacity
	for _, m := range c.pages {
		m.Reset()
	}
	for len(c.pages) < slots {
		c.pages = append(c.pages, new(tlbcache.PageMap[int32]))
	}
	if cap(c.nodes) < capacity {
		c.nodes = make([]clsNode, 0, capacity)
	} else {
		c.nodes = c.nodes[:0]
	}
	c.head, c.tail, c.size = nilSlot, nilSlot, 0
}

// missClass is the 3C attribution of one miss.
type missClass uint8

const (
	classNone missClass = iota
	classCompulsory
	classCapacity
	classConflict
)

// classify records a reference to vpn of process slot i and, when
// miss is true, attributes it in res, reporting the attribution
// (classNone on hits) so callers can emit per-miss events.
func (c *classifier) classify(res *Result, i int, vpn units.VPN, miss bool) missClass {
	first, shadowHit := c.touch(i, vpn)
	if !miss {
		return classNone
	}
	switch {
	case first:
		res.Compulsory++
		return classCompulsory
	case !shadowHit:
		res.Capacity++
		return classCapacity
	default:
		res.Conflict++
		return classConflict
	}
}

// touch references vpn of slot i in the shadow cache, reporting
// whether this is the page's first-ever reference and whether the
// shadow cache hit.
func (c *classifier) touch(i int, vpn units.VPN) (first, shadowHit bool) {
	p, first := c.pages[i].Ensure(vpn)
	if first {
		*p = int32(len(c.nodes))
		c.nodes = append(c.nodes, clsNode{})
	}
	slot := *p
	if c.nodes[slot].resident {
		c.moveToFront(slot)
		return false, true
	}
	c.nodes[slot].resident = true
	c.pushFront(slot)
	c.size++
	if c.size > c.capacity {
		evict := c.tail
		c.unlink(evict)
		c.nodes[evict].resident = false
		c.size--
	}
	return first, false
}

func (c *classifier) pushFront(slot int32) {
	n := &c.nodes[slot]
	n.next = c.head
	n.prev = nilSlot
	if c.head != nilSlot {
		c.nodes[c.head].prev = slot
	}
	c.head = slot
	if c.tail == nilSlot {
		c.tail = slot
	}
}

func (c *classifier) unlink(slot int32) {
	n := &c.nodes[slot]
	if n.prev != nilSlot {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilSlot {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nilSlot, nilSlot
}

func (c *classifier) moveToFront(slot int32) {
	if c.head == slot {
		return
	}
	c.unlink(slot)
	c.pushFront(slot)
}
