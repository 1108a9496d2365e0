package tlbcache

import "utlb/internal/units"

// Dense is an open-addressing hash table on the (pid, vpn) translation
// Key, the dense_hash_map idiom hot translation paths reach for instead
// of a Go map: power-of-two capacity, linear probing, and tombstone-free
// deletion by backward shift, so probe chains never accumulate dead
// slots and a lookup touches a handful of contiguous cache lines.
//
// It is the simulator's one page-keyed table: the 3C classifier's
// key→slot index (V = int32), a vm.Space's page table (V = pageInfo)
// and a replacement policy's page→position index (V = int32) are its
// instances. The zero Key is a legal key; occupancy is tracked in a
// separate byte array rather than by reserving a sentinel.
//
// Iteration (Slot) runs in slot order, a function of the hash and the
// table's history, never of a per-process random seed — but callers
// that feed iteration into results must still impose their own total
// order (see core's victim tie-break), so capacity changes cannot move
// a simulated number.
//
// Dense is not safe for concurrent use; give each goroutine its own
// (sim.RunScratch holds one set per worker).
type Dense[V any] struct {
	keys []Key
	vals []V
	live []bool
	n    int
	mask uint64
}

// PageKey keys a table that belongs to one process (a vm.Space's page
// table, a replacement policy): the page alone, PID zero.
func PageKey(vpn units.VPN) Key { return Key{VPN: vpn} }

// denseMinCap is the smallest table allocated; small hints still get a
// table that won't grow for a while.
const denseMinCap = 64

// NewDense returns a table pre-sized to hold about hint entries
// without growing.
func NewDense[V any](hint int) *Dense[V] {
	capacity := denseMinCap
	for capacity < hint*2 {
		capacity *= 2
	}
	d := &Dense[V]{}
	d.alloc(capacity)
	return d
}

func (d *Dense[V]) alloc(capacity int) {
	d.keys = make([]Key, capacity)
	d.vals = make([]V, capacity)
	d.live = make([]bool, capacity)
	d.mask = uint64(capacity - 1)
	d.n = 0
}

// Len reports the number of resident entries.
func (d *Dense[V]) Len() int { return d.n }

// Cap reports the current slot-array capacity: the bound of Slot's
// index space.
func (d *Dense[V]) Cap() int { return len(d.keys) }

// Reset empties the table, keeping its capacity for reuse.
func (d *Dense[V]) Reset() {
	if d.n == 0 {
		return
	}
	clear(d.live)
	d.n = 0
}

// home is the key's preferred slot: a multiplicative hash mixing the
// process and page halves so consecutive VPNs of one process and the
// same VPN across processes both spread.
func (d *Dense[V]) home(k Key) uint64 {
	h := uint64(k.VPN)*0x9E3779B97F4A7C15 + uint64(k.PID)*0xC2B2AE3D27D4EB4F
	return (h ^ (h >> 29)) & d.mask
}

// find returns the slot holding k and whether it is present; when
// absent, the returned slot is where an insert would land.
func (d *Dense[V]) find(k Key) (uint64, bool) {
	i := d.home(k)
	for d.live[i] {
		if d.keys[i] == k {
			return i, true
		}
		i = (i + 1) & d.mask
	}
	return i, false
}

// Ref returns a pointer to k's value for in-place update, or nil when
// k is absent. The pointer is valid until the next Ensure, Delete or
// Reset.
func (d *Dense[V]) Ref(k Key) *V {
	if i, ok := d.find(k); ok {
		return &d.vals[i]
	}
	return nil
}

// Ensure returns a pointer to k's value, first inserting the zero
// value when k is absent (fresh reports that it did). The pointer is
// valid until the next Ensure, Delete or Reset.
func (d *Dense[V]) Ensure(k Key) (v *V, fresh bool) {
	i, ok := d.find(k)
	if ok {
		return &d.vals[i], false
	}
	// Grow at 3/4 load so probe chains stay short; re-find after the
	// rehash moved everyone.
	if 4*(d.n+1) > 3*len(d.keys) {
		d.grow()
		i, _ = d.find(k)
	}
	var zero V
	d.keys[i] = k
	d.vals[i] = zero
	d.live[i] = true
	d.n++
	return &d.vals[i], true
}

func (d *Dense[V]) grow() {
	oldKeys, oldVals, oldLive := d.keys, d.vals, d.live
	d.alloc(2 * len(oldKeys))
	for i, lv := range oldLive {
		if !lv {
			continue
		}
		j, _ := d.find(oldKeys[i])
		d.keys[j] = oldKeys[i]
		d.vals[j] = oldVals[i]
		d.live[j] = true
		d.n++
	}
}

// Slot reads slot i ∈ [0, Cap()): its key, a pointer to its value, and
// whether it is occupied. Walking i upward visits every resident entry
// once, in slot order; the walk must not be interleaved with Ensure
// or Delete.
func (d *Dense[V]) Slot(i int) (Key, *V, bool) {
	return d.keys[i], &d.vals[i], d.live[i]
}

// Delete removes k, reporting whether it was present. The following
// probe chain is shifted back over the hole (no tombstones): each
// subsequent live slot moves into the hole if its home position does
// not lie cyclically between the hole and the slot — the classic
// open-addressing backshift invariant.
func (d *Dense[V]) Delete(k Key) bool {
	hole, ok := d.find(k)
	if !ok {
		return false
	}
	d.n--
	j := hole
	for {
		d.live[hole] = false
		for {
			j = (j + 1) & d.mask
			if !d.live[j] {
				return true
			}
			h := d.home(d.keys[j])
			// Movable iff home h is not in the cyclic interval
			// (hole, j]: the shifted entry must still be reachable
			// from its home by linear probing.
			if (j-h)&d.mask >= (j-hole)&d.mask {
				break
			}
		}
		d.keys[hole] = d.keys[j]
		d.vals[hole] = d.vals[j]
		d.live[hole] = true
		hole = j
	}
}
