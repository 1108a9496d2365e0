package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"utlb/internal/core"
	"utlb/internal/trace"
	"utlb/internal/units"
)

// oracleRecord is symbol i of the alphabet: pid 1+i%2, page i/2%4, and
// shape i/8: zero bytes, one page, or 16 bytes across the page's end.
func oracleRecord(i int) trace.Record {
	va := units.VPN(i / 2 % 4).Addr()
	if i/8 == 2 {
		va += units.PageSize - 8
	}
	return trace.Record{PID: units.ProcID(1 + i%2), VA: va, Bytes: [3]int32{0, units.PageSize, 16}[i/8]}
}

// lru is a naive set-associative LRU: one least-recent-first list, ≤ ways lines a set.
type lru struct {
	lines []int
	ways  int
	set   func(p int) int
}

// lookup reports whether p is cached, making it the most recent line.
func (c *lru) lookup(p int) bool {
	i := slices.Index(c.lines, p)
	if i >= 0 {
		c.lines = append(slices.Delete(c.lines, i, i+1), p)
	}
	return i >= 0
}

// insert caches p, returning the line it displaced from a full set, or -1.
func (c *lru) insert(p int) int {
	set, old := slices.DeleteFunc(slices.Clone(c.lines), func(x int) bool { return c.set(x) != c.set(p) }), -1
	if len(set) == c.ways {
		old, c.lines = set[0], slices.Delete(c.lines, slices.Index(c.lines, set[0]), slices.Index(c.lines, set[0])+1)
	}
	c.lines = append(c.lines, p)
	return old
}

// model is the oracle's replay, with no costs. Page p is pid p/5+1's page
// p%5; stamp[p] is its replacement-policy stamp, 0 while unpinned.
type model struct {
	c      Config
	tick   int64
	stamp  [10]int64
	seen   [10]bool
	ni     lru // the NI translation cache
	shadow lru // Hill's fully associative cache of the same size
	res    Result
}

func newModel(c Config) *model {
	return &model{c: c, shadow: lru{ways: c.CacheEntries, set: func(int) int { return 0 }}, ni: lru{ways: c.Ways, set: func(p int) int {
		v := uint64(p % 5) // the paper's index, with Knuth's offset of the pid
		if c.IndexOffset {
			v += uint64(p/5+1) * 2654435761
		}
		return int(v % uint64(c.CacheEntries/c.Ways))
	}}}
}

func (o *model) touch(p int) { o.tick++; o.stamp[p] = o.tick }
func (o *model) unpin(p int) {
	o.stamp[p], o.res.Unpins, o.ni.lines = 0, o.res.Unpins+1, slices.DeleteFunc(o.ni.lines, func(x int) bool { return x == p })
}

// pinAll pins list once it fits under limit (0 = none), evicting lo's
// process' least recently used page outside [lo, hi) while there is one;
// UTLB then shrinks list from its tail. False: the pages do not fit.
func (o *model) pinAll(list []int, lo, hi, limit int) bool {
	for {
		held, old := len(list), -1
		for q := lo / 5 * 5; q < lo/5*5+5; q++ {
			if held += int(min(o.stamp[q], 1)); o.stamp[q] > 0 && (q < lo || q >= hi) && (old < 0 || o.stamp[q] < o.stamp[old]) {
				old = q
			}
		}
		switch {
		case limit == 0 || held <= limit:
			for _, p := range list {
				o.touch(p)
			}
			o.res.Pins += int64(len(list))
			return true
		case old >= 0:
			o.unpin(old)
		case len(list) > 1 && o.c.Mechanism == UTLB:
			list = list[:len(list)-1]
		default:
			return false
		}
	}
}

// ref counts one NI reference and attributes a miss by Hill's 3C.
func (o *model) ref(p int, hit bool) {
	first, shadowHit := !o.seen[p], o.shadow.lookup(p)
	if o.seen[p] = true; !shadowHit {
		o.shadow.insert(p)
	}
	switch {
	case hit:
		return
	case first:
		o.res.Compulsory++
	case !shadowHit:
		o.res.Capacity++
	default:
		o.res.Conflict++
	}
	o.res.NIMisses++
}

// record replays one trace record, reporting false where the run must fail.
func (o *model) record(rec trace.Record) bool {
	n := units.PagesSpanned(rec.VA, int(rec.Bytes))
	lo := int(rec.PID-1)*5 + int(rec.VA.PageOf())
	hi, limit := lo+n, o.c.PinLimitPages
	if o.c.Mechanism == PerProcess && (limit == 0 || o.c.CacheEntries < limit) {
		limit = o.c.CacheEntries // the table's slots
	}
	// A record that spans no page is no lookup, and changes nothing else.
	o.res.Lookups, o.res.NIRefs = o.res.Lookups+int64(min(n, 1)), o.res.NIRefs+int64(n)
	var missing []int
	for p := lo; p < hi; p++ {
		switch {
		case o.c.Mechanism == Interrupt:
			// Pin on every miss, and unpin what the fill displaces.
			hit := o.ni.lookup(p)
			if !hit && o.pinAll([]int{p}, p, p, limit) {
				if old := o.ni.insert(p); old >= 0 {
					o.unpin(old)
				}
			} else if hit {
				o.touch(p)
			}
			o.ref(p, hit)
		case o.stamp[p] > 0:
			o.touch(p) // the user-level check's hit
		default:
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		o.res.CheckMisses++
	}
	if o.c.Mechanism != Interrupt && !o.pinAll(missing, lo, hi, limit) {
		return false
	}
	for p := lo; p < hi && o.c.Mechanism != Interrupt; p++ {
		hit := o.c.Mechanism == PerProcess || o.ni.lookup(p)
		if !hit && o.stamp[p] > 0 {
			o.ni.insert(p) // the NI caches only valid translations
		}
		o.ref(p, hit)
	}
	return true
}

// spy fails the run at the first NI reference that does not resolve to
// its page's frame while the page is pinned, to the garbage frame otherwise.
type spy struct {
	mechanism
	r *run
}

func (s spy) translate(slot int, vpns []units.VPN, infos []core.TranslateInfo) error {
	err := s.mechanism.translate(slot, vpns, infos)
	for i, vpn := range vpns {
		pid, sp, want := s.r.pids[slot], s.r.scr.spaces[slot], units.NoPFN // the baseline has no garbage frame
		switch d := s.mechanism.(type) {
		case *sharedCache:
			want = d.drv.Garbage()
		case *perProcess:
			want = d.garbage
		}
		if sp.Pinned(vpn) {
			want, _ = sp.Translate(vpn)
		}
		if got := s.r.scr.pfns[i]; got != want && err == nil {
			err = fmt.Errorf("frame of pid %d page %d = %d, want %d (pinned %v)", pid, vpn, got, want, sp.Pinned(vpn))
		}
	}
	return err
}

var resultFields = strings.Fields("Lookups CheckMisses NIMisses NIRefs Pins Unpins Compulsory Capacity Conflict")

func counts(r Result) [9]int64 {
	return [9]int64{r.Lookups, r.CheckMisses, r.NIMisses, r.NIRefs, r.Pins, r.Unpins, r.Compulsory, r.Capacity, r.Conflict}
}

// check replays tr under c through RunWith and the model and names the
// first thing that differs, or returns "".
func check(tr trace.Trace, c Config, scr *RunScratch) (Result, string) {
	res, err := RunWith(tr, c, scr)
	o, ok := newModel(c), true
	for i := 0; i < len(tr) && ok; i++ {
		ok = o.record(tr[i])
	}
	if (err == nil) != ok || err != nil && !errors.Is(err, core.ErrNoVictim) {
		return res, fmt.Sprintf("run error %v, oracle expects failure %v", err, !ok)
	}
	for i, got := range counts(res) {
		if want := counts(o.res)[i]; ok && got != want {
			return res, fmt.Sprintf("%s = %d, oracle %d", resultFields[i], got, want)
		}
	}
	for i, pid := range scr.run.pids {
		for v := units.VPN(0); v < 5 && ok; v++ {
			if got, want := scr.spaces[i].Pinned(v), o.stamp[int(pid-1)*5+int(v)] > 0; got != want {
				return res, fmt.Sprintf("final pin set: pid %d page %d pinned %v, oracle %v", pid, v, got, want)
			}
		}
	}
	return res, ""
}

// oracleCfg is configuration k of the oracle's 72: design k%3 ×
// entries {1, 2} × pin limit {none, 1, 2} × {seq, overlap ch 1} ×
// batch {1, 2}. Batch 2 is run for UTLB only: PerProc refuses it and
// Intr ignores it.
func oracleCfg(k int) Config {
	c, ch := designCfg(Mechanism(k%3), 1+k/3%2), k/18%2
	c.PinLimitPages, c.BatchPages = k/6%3, 1+k/36
	c.Overlap = OverlapConfig{Enabled: ch > 0, DMAChannels: ch}
	return c
}

// cfgName names an oracleCfg in a failure message.
func cfgName(c Config) string {
	return fmt.Sprintf("%v entries %d limit %d channels %d batch %d",
		c.Mechanism, c.CacheEntries, c.PinLimitPages, c.Overlap.DMAChannels, c.BatchPages)
}

// spyOnDesigns wraps every design in a spy until the test ends.
func spyOnDesigns(t testing.TB) {
	for m := range designs {
		build := designs[m].build
		designs[m].build = func(r *run) (mechanism, int, error) {
			d, width, err := build(r)
			return spy{d, r}, width, err
		}
		t.Cleanup(func() { designs[m].build = build })
	}
}

// replay checks trace n (records: n's digits in base alphabet, + shift)
// under every oracleCfg, batch 2 only when a record spans two pages
// (else batch 2 is batch 1), and Table 4's facts: with no pin limit
// UTLB never unpins and Intr misses on the NI exactly as often.
func replay(tr trace.Trace, n, alphabet, shift int, scr *RunScratch) string {
	straddles := false
	for i := range tr {
		sym := n%alphabet + shift
		tr[i], n = oracleRecord(sym), n/alphabet
		tr[i].Time, straddles = units.Time(i), straddles || sym/8 == 2
	}
	var utlbMisses [3]int64
	for k := 0; k < 72; k++ {
		c := oracleCfg(k)
		if c.BatchPages > 1 && (c.Mechanism != UTLB || !straddles) {
			continue
		}
		res, msg := check(tr, c, scr)
		if msg != "" {
			return cfgName(c) + ": " + msg
		}
		switch m := c.Mechanism; {
		case k >= 6:
		case m == UTLB && res.Unpins != 0:
			return fmt.Sprintf("UTLB unpinned %d pages with no pin limit", res.Unpins)
		case m == UTLB:
			utlbMisses[c.CacheEntries] = res.NIMisses
		case m == Interrupt && res.NIMisses != utlbMisses[c.CacheEntries]:
			return fmt.Sprintf("%d entries: Intr NIMisses %d, UTLB %d", c.CacheEntries, res.NIMisses, utlbMisses[c.CacheEntries])
		}
	}
	return ""
}

// TestOracle replays every trace of up to five records over two pids ×
// four pages (all shapes to depth 3, one page beyond), shortest first:
// each depth is dealt to one worker per CPU, and a divergence stops it.
func TestOracle(t *testing.T) {
	spyOnDesigns(t)
	workers := runtime.GOMAXPROCS(0)
	for depth, total := 1, 24; depth <= 5 && !t.Failed(); depth, total = depth+1, total*24 {
		alphabet, shift := 24, 0
		if depth > 3 {
			alphabet, shift, total = 8, 8, 1<<(3*depth)
		}
		t.Run(fmt.Sprint("depth", depth), func(t *testing.T) {
			for w := 0; w < workers; w++ {
				t.Run(fmt.Sprint("worker", w), func(t *testing.T) {
					t.Parallel()
					tr, scr := make(trace.Trace, depth), NewRunScratch()
					for n := w; n < total; n += workers {
						if msg := replay(tr, n, alphabet, shift, scr); msg != "" {
							t.Fatalf("trace %+v: %s", tr, msg)
						}
					}
				})
			}
		})
	}
}

// FuzzSimVsOracle checks traces far longer than TestOracle's, long
// enough to build pin-limit eviction pressure: data[0] picks one
// oracleCfg, and each further byte, up to 64, is a record of the
// alphabet.
func FuzzSimVsOracle(f *testing.F) {
	spyOnDesigns(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		c := oracleCfg(int(data[0]) % 72)
		if c.BatchPages > 1 && c.Mechanism != UTLB {
			return
		}
		tr := make(trace.Trace, min(len(data)-1, 64))
		for i := range tr {
			tr[i] = oracleRecord(int(data[1+i]) % 24)
			tr[i].Time = units.Time(i)
		}
		if _, msg := check(tr, c, NewRunScratch()); msg != "" {
			t.Fatalf("%s: trace %+v: %s", cfgName(c), tr, msg)
		}
	})
}
