package xlate

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"utlb/internal/tlbcache"
	"utlb/internal/units"
)

// The concurrent-history check. Several goroutines drive every
// operation of the service over one shared key space. Each operation
// takes an invocation stamp before it starts and a response stamp after
// it returns, both from one atomic counter, so a.resp < b.inv means a
// finished before b began. Every insert writes a frame that encodes its
// key and a per-key version, so a hit names the one insert it came
// from. The checker then judges every hit against the history:
//
//   - future-read: the insert was invoked after the lookup responded;
//   - stale-after-invalidate: an invalidation of the key ran wholly
//     between the insert's response and the lookup's invocation;
//   - stale-after-overwrite: so did another insert of the key, which
//     replaces the frame in place — or a later position of the same
//     InsertMany batch, since a batch applies in batch order;
//   - foreign-frame, never-inserted: the frame is not one this key was
//     given.
//
// A miss is never a violation: the service may forget (evict), never
// fabricate. InvalidateProcess is modelled as one invalidation per
// shard, not one atomic operation (its doc comment says so): each key's
// invalidation happens somewhere inside the call's interval, so only a
// call that lies wholly between an insert and a lookup condemns the
// hit.

// translator is the service surface the history drives.
type translator interface {
	Lookup(Key) Result
	LookupMany([]Key, []Result) []Result
	Insert(Key, units.PFN) (Key, bool)
	InsertMany([]Key, []units.PFN) int
	Invalidate(Key) bool
	InvalidateProcess(units.ProcID) int
}

const (
	histPIDs = 3
	histVPNs = 24
)

// frame encodes k and the version of the insert that writes it.
func frame(k Key, ver uint32) units.PFN {
	return units.PFN(uint64(k.PID)<<48 | uint64(k.VPN)<<32 | uint64(ver))
}

func unframe(p units.PFN) (Key, uint32) {
	return Key{PID: units.ProcID(p >> 48), VPN: units.VPN(p >> 32 & 0xFFFF)}, uint32(p)
}

// interval is one operation's invocation and response stamps.
type interval struct{ inv, resp int64 }

// histEvent is one key's part in one operation: an insert of version
// ver ('I'), an invalidation ('V'), a lookup hit that read version ver
// ('L'), or a lookup hit on another key's frame ('F').
type histEvent struct {
	kind byte
	op   string
	key  Key
	ver  uint32
	interval
}

// role is what one recorder does: step draws its operation from cases
// [lo, hi) of its switch, and its keys from hot (nil = the whole key
// space).
type role struct {
	lo, hi int
	hot    []Key
}

// anyOp draws every operation over the whole key space.
var anyOp = role{0, 16, nil}

// recorder runs one goroutine's share of a history.
type recorder struct {
	role
	svc      translator
	clock    *atomic.Int64
	versions *[histPIDs * histVPNs]atomic.Uint32
	rng      *rand.Rand
	events   []histEvent
	out      []Result
}

func (r *recorder) key() Key {
	if r.hot != nil {
		return r.hot[r.rng.Intn(len(r.hot))]
	}
	return key(1+r.rng.Intn(histPIDs), r.rng.Intn(histVPNs))
}

func (r *recorder) keys(max int) []Key {
	keys := make([]Key, 1+r.rng.Intn(max))
	for i := range keys {
		keys[i] = r.key()
	}
	return keys
}

func (r *recorder) nextVersion(k Key) uint32 {
	return r.versions[int(k.PID-1)*histVPNs+int(k.VPN)].Add(1)
}

// step performs one random operation and records it.
func (r *recorder) step() {
	var keys []Key
	var pfns []units.PFN
	var kind byte
	var op string
	var call func()
	// Everything the call needs is drawn before the invocation stamp.
	switch c := r.lo + r.rng.Intn(r.hi-r.lo); {
	case c < 3:
		kind, op, keys = 'I', "Insert", []Key{r.key()}
		call = func() { r.svc.Insert(keys[0], pfns[0]) }
	case c < 5:
		kind, op, keys = 'I', "InsertMany", r.keys(8)
		call = func() { r.svc.InsertMany(keys, pfns) }
	case c < 7:
		kind, op, keys = 'V', "Invalidate", []Key{r.key()}
		call = func() { r.svc.Invalidate(keys[0]) }
	case c < 8:
		pid := 1 + r.rng.Intn(histPIDs)
		kind, op = 'V', "InvalidateProcess"
		for vpn := 0; vpn < histVPNs; vpn++ {
			keys = append(keys, key(pid, vpn))
		}
		call = func() { r.svc.InvalidateProcess(units.ProcID(pid)) }
	case c < 11:
		kind, op, keys = 'L', "Lookup", []Key{r.key()}
		call = func() { r.out = append(r.out[:0], r.svc.Lookup(keys[0])) }
	default:
		kind, op, keys = 'L', "LookupMany", r.keys(16)
		call = func() { r.out = r.svc.LookupMany(keys, r.out) }
	}
	if kind == 'I' {
		pfns = make([]units.PFN, len(keys))
		for i, k := range keys {
			pfns[i] = frame(k, r.nextVersion(k))
		}
	}

	iv := interval{inv: r.clock.Add(1)}
	call()
	iv.resp = r.clock.Add(1)

	for i, k := range keys {
		ev := histEvent{kind: kind, op: op, key: k, interval: iv}
		switch kind {
		case 'I':
			_, ev.ver = unframe(pfns[i])
		case 'L':
			res := r.out[i]
			if !res.Hit {
				continue
			}
			got, ver := unframe(res.PFN)
			if got != k {
				ev.kind = 'F'
			} else {
				ev.ver = ver
			}
		}
		r.events = append(r.events, ev)
	}
}

// recordHistory runs one goroutine per role, steps operations each,
// against svc and returns every recorded event. The goroutines start
// together and yield after every step, so that on a machine with few
// CPUs the first ones started cannot finish before the last begin (a
// reader that runs out its steps before any writer has inserted
// records no hit).
func recordHistory(svc translator, steps int, seed int64, roles ...role) []histEvent {
	var clock atomic.Int64
	var versions [histPIDs * histVPNs]atomic.Uint32
	recs := make([]*recorder, len(roles))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = &recorder{role: roles[w], svc: svc, clock: &clock, versions: &versions, rng: rand.New(rand.NewSource(seed + int64(w)))}
		wg.Add(1)
		go func(r *recorder) {
			defer wg.Done()
			<-start
			for i := 0; i < steps; i++ {
				r.step()
				runtime.Gosched()
			}
		}(recs[w])
	}
	close(start)
	wg.Wait()
	var all []histEvent
	for _, r := range recs {
		all = append(all, r.events...)
	}
	return all
}

// checkHistory judges every lookup hit in events and returns one line
// per violation, each led by its class name.
func checkHistory(events []histEvent) []string {
	type version struct {
		key Key
		ver uint32
	}
	inserts := map[version]histEvent{}
	writes := map[Key][]histEvent{} // inserts and invalidations per key
	for _, ev := range events {
		switch ev.kind {
		case 'I':
			inserts[version{ev.key, ev.ver}] = ev
			writes[ev.key] = append(writes[ev.key], ev)
		case 'V':
			writes[ev.key] = append(writes[ev.key], ev)
		}
	}
	var bad []string
	for _, l := range events {
		if l.kind == 'F' {
			bad = append(bad, fmt.Sprintf("foreign-frame: %s of %v %v hit another key's frame", l.op, l.key, l.interval))
		}
		if l.kind != 'L' {
			continue
		}
		in, ok := inserts[version{l.key, l.ver}]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("never-inserted: %s of %v %v read version %d", l.op, l.key, l.interval, l.ver))
			continue
		case in.inv > l.resp:
			bad = append(bad, fmt.Sprintf("future-read: %s of %v %v read version %d, inserted %v", l.op, l.key, l.interval, l.ver, in.interval))
			continue
		}
		for _, w := range writes[l.key] {
			// w follows the insert if it began after the insert returned,
			// or is a later position of the same InsertMany batch.
			follows := in.resp < w.inv || w.interval == in.interval && w.ver > in.ver
			if !follows || w.resp >= l.inv {
				continue
			}
			class := "stale-after-invalidate"
			if w.kind == 'I' {
				class = "stale-after-overwrite"
			}
			bad = append(bad, fmt.Sprintf("%s: %s of %v %v read version %d, inserted %v; %s %v completed in between",
				class, l.op, l.key, l.interval, l.ver, in.interval, w.op, w.interval))
			break
		}
	}
	sort.Strings(bad)
	return bad
}

// TestConcurrentHistory is the history check over the real service,
// in two phases on fresh services of 4 shards × 16 entries, 2-way.
//
// mixed: six goroutines, every operation, a key space just over
// capacity so that evictions, overwrites and invalidations all race
// with lookups.
//
// hot: hits that write nothing. Three goroutines LookupMany four keys,
// one in each of four crowded sets, so most of their hits land on
// their set's MRU line, while two more Insert, InsertMany and
// Invalidate those keys and two more of each set, moving lines and MRU
// flags under the readers.
func TestConcurrentHistory(t *testing.T) {
	newSvc := func(t *testing.T) *Service {
		svc, err := New(Config{Shards: 4, Entries: 16, Ways: 2, IndexOffset: true})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	t.Run("mixed", func(t *testing.T) {
		svc := newSvc(t)
		checkHistoryClean(t, recordHistory(svc, 3000, 1998, anyOp, anyOp, anyOp, anyOp, anyOp, anyOp))
	})
	t.Run("read-mostly", func(t *testing.T) {
		svc := newSvc(t)
		read := role{8, 16, nil} // Lookup and LookupMany
		checkHistoryClean(t, recordHistory(svc, 3000, 1998, read, read, read, anyOp))
		lockFree, locked := pathCounts(svc)
		t.Logf("%d lookups answered without the lock, %d under it", lockFree, locked)
		if lockFree == 0 || locked == 0 {
			t.Errorf("%d lookups answered without the lock and %d under it; both paths should have run", lockFree, locked)
		}
	})
	t.Run("hot", func(t *testing.T) {
		svc := newSvc(t)
		var readKeys, writeKeys []Key
		for _, g := range crowdedSets(svc, 4, 3) {
			readKeys, writeKeys = append(readKeys, g[0]), append(writeKeys, g...)
		}
		read, write := role{11, 16, readKeys}, role{0, 7, writeKeys} // LookupMany; Insert, InsertMany, Invalidate
		checkHistoryClean(t, recordHistory(svc, 1500, 1998, read, read, read, write, write))

		// A stamp is a fill or a hit off the MRU line; the rest wrote nothing.
		st := svc.Stats().Total
		hits, offMRU := st.Hits, -st.Fills
		for i := range svc.shards {
			offMRU += reflect.ValueOf(&svc.shards[i].cache).Elem().FieldByName("tick").Int()
		}
		t.Logf("%d hits, %d of them off the MRU line", hits, offMRU)
		if 2*offMRU >= hits {
			t.Errorf("%d of %d hits restamped their line; most should land on an MRU line", offMRU, hits)
		}
	})
}

// pathCounts reports how many of svc's lookups were answered without
// the lock (the slots' counts) and under it (the caches').
func pathCounts(svc *Service) (lockFree, locked int64) {
	for j := range svc.readers {
		lockFree += svc.readers[j].hits + svc.readers[j].misses
	}
	for i := range svc.shards {
		st := svc.shards[i].cache.Stats()
		locked += st.Hits + st.Misses
	}
	return lockFree, locked
}

// checkHistoryClean fails t unless events hold every kind and no
// violation.
func checkHistoryClean(t *testing.T, events []histEvent) {
	t.Helper()
	counts := map[byte]int{}
	for _, ev := range events {
		counts[ev.kind]++
	}
	if counts['I'] == 0 || counts['V'] == 0 || counts['L'] == 0 {
		t.Fatalf("history lacks a kind: %d inserts, %d invalidations, %d hits", counts['I'], counts['V'], counts['L'])
	}
	if bad := checkHistory(events); len(bad) > 0 {
		t.Fatalf("%d violations in %d events, first: %s", len(bad), len(events), bad[0])
	}
}

// crowdedSets returns the sets largest groups of the history's key
// space that share one shard and one set of svc, cut to per keys each.
// Two keys share a set when, in a direct-mapped cache with as many
// sets, the second evicts the first.
func crowdedSets(svc *Service, sets, per int) [][]Key {
	cfg := svc.Config()
	probe := tlbcache.New(tlbcache.Config{Entries: cfg.Entries / cfg.Ways, Ways: 1, IndexOffset: cfg.IndexOffset})
	sameSet := func(a, b Key) bool {
		probe.Flush()
		probe.Insert(a, 0)
		_, evicted := probe.Insert(b, 0)
		return evicted
	}
	var groups [][]Key
next:
	for pid := 1; pid <= histPIDs; pid++ {
		for vpn := 0; vpn < histVPNs; vpn++ {
			k := key(pid, vpn)
			for i, g := range groups {
				if svc.shardIndex(g[0]) == svc.shardIndex(k) && sameSet(g[0], k) {
					groups[i] = append(g, k)
					continue next
				}
			}
			groups = append(groups, []Key{k})
		}
	}
	sort.SliceStable(groups, func(i, j int) bool { return len(groups[i]) > len(groups[j]) })
	groups = groups[:sets]
	for i, g := range groups {
		groups[i] = g[:min(per, len(g))]
	}
	return groups
}

// dropsOne is the checker's negative control: a service whose
// Invalidate leaves one key in place while reporting it dropped.
type dropsOne struct {
	*Service
	victim Key
}

func (d dropsOne) Invalidate(k Key) bool {
	if k == d.victim {
		return true
	}
	return d.Service.Invalidate(k)
}

// TestHistoryCatchesDroppedInvalidate: the checker must name the bug.
// One goroutine makes the history deterministic.
func TestHistoryCatchesDroppedInvalidate(t *testing.T) {
	svc, err := New(Config{Shards: 4, Entries: 16, Ways: 2, IndexOffset: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := key(1, 0)
	bad := checkHistory(recordHistory(dropsOne{svc, victim}, 6000, 1998, anyOp))
	if len(bad) == 0 {
		t.Fatal("a service that never invalidates one key passed the history check")
	}
	for _, v := range bad {
		if !strings.HasPrefix(v, "stale-after-invalidate: ") || !strings.Contains(v, fmt.Sprint(victim)) {
			t.Errorf("violation %q is not a stale read of %v after its invalidation", v, victim)
		}
	}
}
