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
// bookkeeping is one dense-table probe and zero per-key heap
// allocations. Every key ever seen owns one slot in a grow-only slab
// of index-linked nodes; the slot doubles as the "seen" record (slots
// are never reclaimed, only unlinked from the LRU list on eviction).
// The key→slot index is a tlbcache.Dense open-addressing table rather
// than a Go map: the probe stays in two or three contiguous arrays,
// and reset() recycles both the table and the slab across runs.
type classifier struct {
	capacity int
	slots    *tlbcache.Dense[int32]
	nodes    []clsNode
	head     int32 // most recent, nilSlot when empty
	tail     int32 // least recent
	size     int   // resident nodes
}

type clsNode struct {
	key        tlbcache.Key
	prev, next int32
	resident   bool
}

const nilSlot = int32(-1)

func newClassifier(capacity int) *classifier {
	c := &classifier{}
	c.reset(capacity)
	return c
}

// reset readies the classifier for a fresh run over the same backing
// arrays; capacity may differ between runs.
func (c *classifier) reset(capacity int) {
	c.capacity = capacity
	if c.slots == nil {
		c.slots = tlbcache.NewDense[int32](capacity)
	} else {
		c.slots.Reset()
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

// classify records a reference to (pid, vpn) and, when miss is true,
// attributes it in res, reporting the attribution (classNone on hits)
// so callers can emit per-miss events.
func (c *classifier) classify(res *Result, pid units.ProcID, vpn units.VPN, miss bool) missClass {
	key := tlbcache.Key{PID: pid, VPN: vpn}
	first, shadowHit := c.touch(key)
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

// touch references key in the shadow cache, reporting whether this is
// the key's first-ever reference and whether the shadow cache hit.
func (c *classifier) touch(key tlbcache.Key) (first, shadowHit bool) {
	p, first := c.slots.Ensure(key)
	if first {
		*p = int32(len(c.nodes))
		c.nodes = append(c.nodes, clsNode{key: key})
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
