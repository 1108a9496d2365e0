package tlbcache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"utlb/internal/units"
)

// refLRU is the judge of Cache's replacement: a naive set-associative
// cache that keeps each set's ways in an explicit recency list and
// knows nothing of stamps or MRU flags. A line goes to the set's first
// empty way, else to the way at the front of the list (the LRU way);
// every hit and every install moves its way to the back.
type refLRU struct {
	ways, sets int
	offset     bool
	lines      [][]refLine // [set][way]
	recency    [][]int     // [set]: ways, least recent first
	stats      Stats
}

type refLine struct {
	valid bool
	key   Key
	pfn   units.PFN
}

func newRefLRU(cfg Config) *refLRU {
	r := &refLRU{ways: cfg.Ways, sets: cfg.Entries / cfg.Ways, offset: cfg.IndexOffset}
	r.lines = make([][]refLine, r.sets)
	r.recency = make([][]int, r.sets)
	for s := range r.lines {
		r.lines[s] = make([]refLine, r.ways)
	}
	return r
}

// set is the paper's index, written out again: the page number, plus
// Knuth's multiplicative offset of the process when offsetting is on.
func (r *refLRU) set(k Key) int {
	v := uint64(k.VPN)
	if r.offset {
		v += uint64(k.PID) * 2654435761
	}
	return int(v & uint64(r.sets-1))
}

// use moves way w of set s to the back of the recency list.
func (r *refLRU) use(s, w int) {
	r.recency[s] = append(slices.DeleteFunc(r.recency[s], func(x int) bool { return x == w }), w)
}

func (r *refLRU) drop(s, w int) {
	r.lines[s][w] = refLine{}
	r.recency[s] = slices.DeleteFunc(r.recency[s], func(x int) bool { return x == w })
	r.stats.Invalidations++
}

func (r *refLRU) Lookup(k Key) Result {
	s := r.set(k)
	for w, l := range r.lines[s] {
		if l.valid && l.key == k {
			r.use(s, w)
			r.stats.Hits++
			return Result{Hit: true, PFN: l.pfn, Probes: w + 1}
		}
	}
	r.stats.Misses++
	return Result{PFN: units.NoPFN, Probes: r.ways}
}

func (r *refLRU) Insert(k Key, pfn units.PFN) (evicted Key, wasEvicted bool) {
	s := r.set(k)
	r.stats.Fills++
	victim := -1
	for w, l := range r.lines[s] {
		if l.valid && l.key == k {
			r.lines[s][w].pfn = pfn
			r.use(s, w)
			return Key{}, false
		}
		if !l.valid && victim < 0 {
			victim = w
		}
	}
	if victim < 0 {
		victim = r.recency[s][0]
		evicted, wasEvicted = r.lines[s][victim].key, true
		r.stats.Evictions++
	}
	r.lines[s][victim] = refLine{valid: true, key: k, pfn: pfn}
	r.use(s, victim)
	return evicted, wasEvicted
}

func (r *refLRU) Invalidate(k Key) bool {
	s := r.set(k)
	for w, l := range r.lines[s] {
		if l.valid && l.key == k {
			r.drop(s, w)
			return true
		}
	}
	return false
}

// invalidateIf drops every line whose key satisfies match.
func (r *refLRU) invalidateIf(match func(Key) bool) int {
	n := 0
	for s := range r.lines {
		for w, l := range r.lines[s] {
			if l.valid && match(l.key) {
				r.drop(s, w)
				n++
			}
		}
	}
	return n
}

// TestCacheMatchesReferenceLRU drives Cache and refLRU with the same
// random operations — lookups, fresh inserts and in-place updates,
// invalidations, process sweeps, flushes and runs of lookups of one
// resident key — and requires the same result, the same evicted key
// and the same Stats after every one. The key space is three times the
// cache's capacity, so sets fill and evict all the time.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4} {
		for _, offset := range []bool{false, true} {
			cfg := Config{Entries: 32, Ways: ways, IndexOffset: offset}
			t.Run(fmt.Sprintf("ways%d/offset=%v", ways, offset), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					driveAgainstReference(t, cfg, seed, 10_000)
				}
			})
		}
	}
}

// evictResult is Insert's two results, comparable in one piece.
type evictResult struct {
	key Key
	was bool
}

func driveAgainstReference(t *testing.T, cfg Config, seed int64, steps int) {
	t.Helper()
	c, ref := New(cfg), newRefLRU(cfg)
	rng := rand.New(rand.NewSource(seed))
	key := func() Key { // three processes of Entries pages each
		return Key{PID: units.ProcID(1 + rng.Intn(3)), VPN: units.VPN(rng.Intn(cfg.Entries))}
	}
	step := 0
	check := func(op string, got, want any) {
		t.Helper()
		if got != want {
			t.Fatalf("%+v seed %d step %d: %s = %+v, reference LRU %+v", cfg, seed, step, op, got, want)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("%+v seed %d step %d: after %s Stats = %+v, reference LRU %+v", cfg, seed, step, op, c.Stats(), ref.stats)
		}
	}
	var last Key // the key last looked up or inserted
	for ; step < steps; step++ {
		switch n := rng.Intn(100); {
		case n < 30:
			last = key()
			check(fmt.Sprintf("Lookup(%v)", last), c.Lookup(last), ref.Lookup(last))
		case n < 40: // a run of hits on one line: the MRU path
			for run := 1 + rng.Intn(32); run > 0; run-- {
				check(fmt.Sprintf("Lookup(%v), %d to go", last, run), c.Lookup(last), ref.Lookup(last))
			}
		case n < 75:
			if rng.Intn(4) > 0 {
				last = key()
			} // else an in-place update of the last line
			pfn := units.PFN(step)
			ge, gw := c.Insert(last, pfn)
			we, ww := ref.Insert(last, pfn)
			check(fmt.Sprintf("Insert(%v, %d)", last, pfn), evictResult{ge, gw}, evictResult{we, ww})
		case n < 95:
			k := key()
			check(fmt.Sprintf("Invalidate(%v)", k), c.Invalidate(k), ref.Invalidate(k))
		case n < 99:
			pid := units.ProcID(1 + rng.Intn(3))
			check(fmt.Sprintf("InvalidateProcess(%d)", pid), c.InvalidateProcess(pid),
				ref.invalidateIf(func(k Key) bool { return k.PID == pid }))
		default:
			c.Flush()
			ref.invalidateIf(func(Key) bool { return true })
			check("Flush()", nil, nil)
		}
	}
	// Both hit paths ran: a stamp is a fill or a hit off the MRU line.
	offMRU := c.tick - c.fills
	if onMRU := c.hits - offMRU; onMRU == 0 || offMRU == 0 && cfg.Ways > 1 {
		t.Fatalf("%+v seed %d: %d hits on the MRU line, %d off it; the drive misses a path", cfg, seed, onMRU, offMRU)
	}
}
