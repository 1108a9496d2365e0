package sim

import (
	"fmt"
	"testing"
	"time"

	"utlb/internal/tlbcache"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/workload"
)

// setDistances returns each page reference's LRU stack distance within
// its cache set, in replay order: how many distinct keys of the same set
// were referenced since the key's previous reference, -1 for its first
// reference and depth for depth or more. Each set is an LRU stack over
// its own references, so Mattson's argument holds per set: a depth-way
// LRU set hits a reference iff its distance is in [0, depth). One stack
// of at most depth keys per set makes it O(N·depth).
func setDistances(recs trace.Trace, sets, depth int, index func(tlbcache.Key) int) []int32 {
	stacks := make([][]tlbcache.Key, sets) // most recent first
	seen := map[tlbcache.Key]bool{}
	var dist []int32
	for _, r := range recs {
		for p := range units.PagesSpanned(r.VA, int(r.Bytes)) {
			k := tlbcache.Key{PID: r.PID, VPN: r.VA.PageOf() + units.VPN(p)}
			set := index(k)
			s := stacks[set]
			i := -1
			for j := range s {
				if s[j] == k {
					i = j
					break
				}
			}
			d := int32(i)
			if i < 0 {
				d = int32(depth)
				if !seen[k] {
					d, seen[k] = -1, true
				}
				if len(s) < depth {
					s = append(s, k)
				}
				i = len(s) - 1 // the slot k takes: a new one, or the LRU key's
			}
			copy(s[1:i+1], s[:i])
			s[0] = k
			stacks[set] = s
			dist = append(dist, d)
		}
	}
	return dist
}

// oracleIndex is tlbcache's set function, restated: the page number
// plus, with index offsetting, the pid times Knuth's multiplicative
// constant, modulo the number of sets.
func oracleIndex(sets int, offset bool) func(tlbcache.Key) int {
	return func(k tlbcache.Key) int {
		h := uint64(k.VPN)
		if offset {
			h += uint64(k.PID) * 2654435761
		}
		return int(h & uint64(sets-1))
	}
}

// TestNIMissesMatchSetDistances is the NIC cache's oracle at paper
// scale: at every Table 4, 6 and 8 geometry (1K-16K entries; direct,
// 2- and 4-way with index offsetting, direct without), on each of the
// seven applications, the simulator's NI misses and cache evictions for
// UTLB and Intr equal what per-set stack distances predict, UTLB fills
// each miss with one DMA, and Intr unpins exactly the evicted pages.
// Its domain is unlimited pins (nothing but a fill ever removes an
// entry), Prefetch 1 and Prepin 1, in any timing mode and at any batch
// width; the modes rotate over the geometries.
func TestNIMissesMatchSetDistances(t *testing.T) {
	start := time.Now()
	geometries := []struct {
		ways   int
		offset bool
	}{{1, true}, {2, true}, {4, true}, {1, false}}
	modes := []struct {
		batch int
		ovl   OverlapConfig
	}{{1, OverlapConfig{}}, {8, OverlapConfig{}}, {8, OverlapConfig{Enabled: true, DMAChannels: 2}}}
	scr := NewRunScratch()
	cell := 0
	for _, spec := range workload.Specs() {
		tr := spec.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: 1998, Scale: 1})
		recs := scr.prepare(tr).recs
		for _, entries := range []int{1024, 2048, 4096, 8192, 16384} {
			for _, g := range geometries {
				sets := entries / g.ways
				var misses, evictions int64
				firsts := make([]int64, sets)
				index := oracleIndex(sets, g.offset)
				dist := setDistances(recs, sets, g.ways, index)
				ref := 0
				for _, r := range recs {
					for p := range units.PagesSpanned(r.VA, int(r.Bytes)) {
						if d := dist[ref]; d < 0 || d >= int32(g.ways) {
							misses++
							if d < 0 {
								firsts[index(tlbcache.Key{PID: r.PID, VPN: r.VA.PageOf() + units.VPN(p)})]++
							}
						}
						ref++
					}
				}
				// A set evicts on every miss once it is full, and it fills
				// with its first ways distinct keys.
				evictions = misses
				for _, f := range firsts {
					evictions -= min(f, int64(g.ways))
				}

				mode := modes[cell%len(modes)]
				cell++
				for _, m := range []Mechanism{UTLB, Interrupt} {
					c := DefaultConfig()
					c.Mechanism, c.CacheEntries, c.Ways, c.IndexOffset = m, entries, g.ways, g.offset
					c.Overlap = mode.ovl
					if m == UTLB {
						c.BatchPages = mode.batch
					}
					name := fmt.Sprintf("%s/%v/%d/%d-way/offset %v/batch %d/ch %d",
						spec.Name, m, entries, g.ways, g.offset, c.BatchPages, mode.ovl.DMAChannels)
					res, err := RunWith(tr, c, scr)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cache := scr.interrupt.cache
					if m == UTLB {
						cache = scr.shared.drv.Cache()
					}
					got := [2]int64{res.NIMisses, cache.Stats().Evictions}
					if got != [2]int64{misses, evictions} {
						t.Errorf("%s: %d NI misses and %d evictions, per-set distances say %d and %d",
							name, got[0], got[1], misses, evictions)
					}
					if reads, _, _, _ := scr.run.nic.Bus().Stats(); m == UTLB && reads != misses {
						t.Errorf("%s: %d DMA fills for %d misses", name, reads, misses)
					}
					if m == Interrupt && res.Unpins != evictions {
						t.Errorf("%s: %d unpins for %d evictions", name, res.Unpins, evictions)
					}
				}
			}
		}
	}
	t.Logf("%d cells in %v", 2*cell, time.Since(start))
}
