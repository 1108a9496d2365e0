package sim

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"utlb/internal/core"
	"utlb/internal/obs"
	"utlb/internal/trace"
	"utlb/internal/units"
	"utlb/internal/workload"
)

// smallTrace builds a quick calibrated workload trace.
func smallTrace(t *testing.T, app string, scale float64) trace.Trace {
	t.Helper()
	s, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	return s.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: 42, Scale: scale})
}

func cfg(m Mechanism, entries int) Config {
	c := DefaultConfig()
	c.Mechanism = m
	c.CacheEntries = entries
	return c
}

// TestMechanismString: the two names experiment tables print are
// fixed, the registry names every design distinctly, and String falls
// back to the number outside it.
func TestMechanismString(t *testing.T) {
	if UTLB.String() != "UTLB" || Interrupt.String() != "Intr" {
		t.Error("Mechanism strings wrong")
	}
	seen := map[string]Mechanism{}
	for i := range designs {
		name := Mechanism(i).String()
		if prev, dup := seen[name]; name == "" || dup {
			t.Errorf("design %d named %q (also design %d)", i, name, prev)
		}
		seen[name] = Mechanism(i)
	}
	if got := Mechanism(len(designs)).String(); got != fmt.Sprintf("Mechanism(%d)", len(designs)) {
		t.Errorf("out-of-registry mechanism prints %q", got)
	}
}

func TestRunUTLBBasics(t *testing.T) {
	tr := smallTrace(t, "water-spatial", 0.1)
	res, err := Run(tr, cfg(UTLB, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookups != int64(len(tr)) {
		t.Errorf("Lookups = %d, want %d", res.Lookups, len(tr))
	}
	if res.NIRefs < res.Lookups {
		t.Errorf("NIRefs = %d < Lookups %d", res.NIRefs, res.Lookups)
	}
	// Infinite memory: UTLB never unpins (the Table 4 signature).
	if res.Unpins != 0 {
		t.Errorf("Unpins = %d, want 0 with infinite memory", res.Unpins)
	}
	// Check misses equal compulsory pins: footprint pages.
	if res.Pins != int64(tr.Footprint()) {
		t.Errorf("Pins = %d, want footprint %d", res.Pins, tr.Footprint())
	}
	if res.HostTime == 0 || res.NICTime == 0 {
		t.Error("clocks did not advance")
	}
	// Misses fully classified.
	if res.Compulsory+res.Capacity+res.Conflict != res.NIMisses {
		t.Errorf("3C %d+%d+%d != misses %d",
			res.Compulsory, res.Capacity, res.Conflict, res.NIMisses)
	}
}

func TestRunInterruptBasics(t *testing.T) {
	tr := smallTrace(t, "water-spatial", 0.1)
	res, err := Run(tr, cfg(Interrupt, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckMisses != 0 {
		t.Error("baseline has no user-level check")
	}
	// Eviction => unpin: with footprint > cache, unpins > 0.
	if tr.Footprint() > 1024 && res.Unpins == 0 {
		t.Error("baseline never unpinned despite evictions")
	}
	if res.Compulsory+res.Capacity+res.Conflict != res.NIMisses {
		t.Error("3C classification incomplete")
	}
}

func TestSameCacheSameMisses(t *testing.T) {
	// §6.2: "we assume that the cache structures are the same for both
	// cases" — with infinite memory both mechanisms see the same
	// reference stream, so NI misses must match closely.
	tr := smallTrace(t, "barnes", 0.1)
	u, err := Run(tr, cfg(UTLB, 512))
	if err != nil {
		t.Fatal(err)
	}
	i, err := Run(tr, cfg(Interrupt, 512))
	if err != nil {
		t.Fatal(err)
	}
	if u.NIMisses != i.NIMisses {
		t.Errorf("NI misses differ: UTLB %d vs Intr %d", u.NIMisses, i.NIMisses)
	}
}

func TestUTLBNeverUnpinsInfiniteMemoryAllApps(t *testing.T) {
	for _, name := range workload.Names() {
		res, err := Run(smallTrace(t, name, 0.05), cfg(UTLB, 256))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Unpins != 0 {
			t.Errorf("%s: UTLB unpinned %d pages with infinite memory", name, res.Unpins)
		}
	}
}

func TestUTLBFewerUnpinsThanInterrupt(t *testing.T) {
	// The headline claim: "UTLB requires fewer page pinning and
	// unpinning operations than the interrupt-driven approach for all
	// cache sizes."
	tr := smallTrace(t, "raytrace", 0.1)
	for _, entries := range []int{128, 512, 2048} {
		u, err := Run(tr, cfg(UTLB, entries))
		if err != nil {
			t.Fatal(err)
		}
		i, err := Run(tr, cfg(Interrupt, entries))
		if err != nil {
			t.Fatal(err)
		}
		if u.Unpins > i.Unpins {
			t.Errorf("entries=%d: UTLB unpins %d > Intr %d", entries, u.Unpins, i.Unpins)
		}
		if u.Pins > i.Pins {
			t.Errorf("entries=%d: UTLB pins %d > Intr %d", entries, u.Pins, i.Pins)
		}
	}
}

func TestUTLBCheaperPerLookup(t *testing.T) {
	// Interrupts are an order of magnitude more expensive than bus
	// reads, so UTLB's average lookup cost must beat the baseline
	// whenever misses are common.
	tr := smallTrace(t, "fft", 0.1)
	u, err := Run(tr, cfg(UTLB, 256))
	if err != nil {
		t.Fatal(err)
	}
	i, err := Run(tr, cfg(Interrupt, 256))
	if err != nil {
		t.Fatal(err)
	}
	if u.AvgLookupCost() >= i.AvgLookupCost() {
		t.Errorf("UTLB %v not cheaper than Intr %v", u.AvgLookupCost(), i.AvgLookupCost())
	}
}

func TestMissRateDecreasesWithCacheSize(t *testing.T) {
	tr := smallTrace(t, "lu", 0.1)
	prev := 2.0
	for _, entries := range []int{64, 256, 1024, 4096} {
		res, err := Run(tr, cfg(UTLB, entries))
		if err != nil {
			t.Fatal(err)
		}
		r := res.NIMissRatio()
		if r > prev+1e-9 {
			t.Errorf("miss ratio rose with cache size at %d: %.3f > %.3f", entries, r, prev)
		}
		prev = r
	}
}

func TestPrefetchReducesMisses(t *testing.T) {
	// §6.4: prefetching reduces the overall miss rate for applications
	// with spatial locality.
	tr := smallTrace(t, "lu", 0.1)
	base, err := Run(tr, cfg(UTLB, 512))
	if err != nil {
		t.Fatal(err)
	}
	c := cfg(UTLB, 512)
	c.Prefetch = 8
	pref, err := Run(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if pref.NIMisses >= base.NIMisses {
		t.Errorf("prefetch did not help: %d vs %d", pref.NIMisses, base.NIMisses)
	}
}

func TestOffsettingReducesMultiprogrammingConflicts(t *testing.T) {
	// §6.3: without offsetting, SPMD processes sharing a VA layout
	// collide in the shared direct-mapped cache.
	tr := smallTrace(t, "volrend", 0.2)
	with := cfg(UTLB, 1024)
	without := cfg(UTLB, 1024)
	without.IndexOffset = false
	w, err := Run(tr, with)
	if err != nil {
		t.Fatal(err)
	}
	wo, err := Run(tr, without)
	if err != nil {
		t.Fatal(err)
	}
	if w.NIMisses >= wo.NIMisses {
		t.Errorf("offsetting did not reduce misses: with=%d without=%d", w.NIMisses, wo.NIMisses)
	}
}

func TestMemoryPressureForcesUnpins(t *testing.T) {
	// Table 5's regime: a pin quota below the footprint forces UTLB
	// to unpin too.
	tr := smallTrace(t, "fft", 0.1)
	c := cfg(UTLB, 1024)
	c.PinLimitPages = 64
	res, err := Run(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unpins == 0 {
		t.Error("no unpins despite pin quota below footprint")
	}
	perProc := tr.Footprint() / workload.ProcsPerNode
	if perProc > 64 && res.Unpins < int64(perProc-64) {
		t.Errorf("unpins %d implausibly low", res.Unpins)
	}
}

func TestCompulsoryEqualsFirstReferences(t *testing.T) {
	tr := smallTrace(t, "radix", 0.05)
	res, err := Run(tr, cfg(UTLB, 64)) // tiny cache: every first ref misses
	if err != nil {
		t.Fatal(err)
	}
	if res.Compulsory != int64(tr.Footprint()) {
		t.Errorf("compulsory = %d, want footprint %d", res.Compulsory, tr.Footprint())
	}
}

func TestRatesAndZeroDivision(t *testing.T) {
	var r Result
	if r.CheckMissRate() != 0 || r.NIMissRate() != 0 || r.NIMissRatio() != 0 ||
		r.UnpinRate() != 0 || r.AvgLookupCost() != 0 || r.AvgNICLookupCost() != 0 ||
		r.AmortizedPinCost() != 0 || r.AmortizedUnpinCost() != 0 {
		t.Error("zero-lookup result should report zero rates")
	}
	r = Result{Lookups: 10, CheckMisses: 5, NIMisses: 2, NIRefs: 20,
		Unpins: 1, HostTime: 100, NICTime: 100, PinTime: units.FromMicros(50)}
	if r.CheckMissRate() != 0.5 || r.NIMissRate() != 0.2 || r.NIMissRatio() != 0.1 {
		t.Error("rates wrong")
	}
	if r.AvgLookupCost() != 20 {
		t.Errorf("AvgLookupCost = %v", r.AvgLookupCost())
	}
	if r.AmortizedPinCost() != units.FromMicros(5) {
		t.Errorf("AmortizedPinCost = %v", r.AmortizedPinCost())
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	tr := trace.Trace{{Time: 0, PID: 1, VA: 0, Bytes: 4096}}
	// The zero config used to silently become DefaultConfig(),
	// discarding explicitly-set fields like Mechanism; now it errors.
	if _, err := Run(tr, Config{}); err == nil {
		t.Error("zero config accepted")
	}
	bad := []func(c *Config){
		func(c *Config) { c.CacheEntries = 0 },
		func(c *Config) { c.CacheEntries = 3000 }, // not a power of two
		func(c *Config) { c.Ways = 3 },
		func(c *Config) { c.Prefetch = 0 },
		func(c *Config) { c.Prepin = -1 },
		func(c *Config) { c.PinLimitPages = -4 },
		func(c *Config) { c.Mechanism = Mechanism(9) },
		func(c *Config) { c.Policy = core.PolicyKind(99) },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config validated: %+v", i, c)
		}
		if _, err := Run(tr, c); err == nil {
			t.Errorf("case %d: Run accepted invalid config", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestRunDoesNotMutateUnsortedInput(t *testing.T) {
	tr := trace.Trace{
		{Time: 100, PID: 1, VA: 0x2000, Bytes: 4096},
		{Time: 0, PID: 1, VA: 0x1000, Bytes: 4096},
	}
	if _, err := Run(tr, cfg(UTLB, 64)); err != nil {
		t.Fatal(err)
	}
	if tr[0].Time != 100 || tr[1].Time != 0 {
		t.Error("Run reordered the caller's trace")
	}
}

func TestRunSortedFastPathMatchesSorted(t *testing.T) {
	// An unsorted trace (its prepared copy sorted) and its pre-sorted
	// equivalent must produce identical results.
	tr := smallTrace(t, "radix", 0.05)
	shuffled := append(trace.Trace(nil), tr...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := (i * 7919) % (i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	if shuffled.IsSortedByTime() {
		t.Fatal("shuffle produced a sorted trace")
	}
	a, err := Run(tr, cfg(UTLB, 256))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shuffled, cfg(UTLB, 256))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("sorted fast path diverged:\n%+v\n%+v", a, b)
	}
}

func TestPoliciesRunUnderPressure(t *testing.T) {
	tr := smallTrace(t, "barnes", 0.05)
	for _, p := range []core.PolicyKind{core.LRU, core.MRU, core.LFU, core.MFU, core.Random} {
		c := cfg(UTLB, 256)
		c.Policy = p
		c.PinLimitPages = 32
		c.Seed = 9
		if _, err := Run(tr, c); err != nil {
			t.Errorf("policy %v: %v", p, err)
		}
	}
}

func TestSimulationDeterminism(t *testing.T) {
	// Identical inputs must yield bit-identical results: the whole
	// evaluation is reproducible by construction.
	tr := smallTrace(t, "raytrace", 0.05)
	c := cfg(UTLB, 256)
	c.Policy = core.Random
	c.Seed = 424242
	c.PinLimitPages = 64
	a, err := Run(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same inputs, different results:\n%+v\n%+v", a, b)
	}
}

func TestContextSwitchesCharged(t *testing.T) {
	// Interleaved processes cost host context switches in either
	// mechanism (equal treatment).
	tr := smallTrace(t, "volrend", 0.05)
	u, err := Run(tr, cfg(UTLB, 256))
	if err != nil {
		t.Fatal(err)
	}
	i, err := Run(tr, cfg(Interrupt, 256))
	if err != nil {
		t.Fatal(err)
	}
	// Both runs processed the same serialised stream, so host time
	// includes the same switching cost; the baseline's total is still
	// at least the UTLB's.
	if i.HostTime < u.HostTime/4 {
		t.Errorf("baseline host time %v implausibly below UTLB %v", i.HostTime, u.HostTime)
	}
}

// TestClassifyAtStackDistanceBoundaries pins the 3C mapping where it
// turns: a miss at stack distance -1 is compulsory, at C-1 conflict
// (a fully associative LRU cache of C entries would have hit it) and
// at C capacity. Each class lands in the Result and, recorded, as an
// instant of its kind carrying the page.
func TestClassifyAtStackDistanceBoundaries(t *testing.T) {
	const capacity = 4
	r, _ := newDesignRig(t, cfg(UTLB, capacity), 7)
	buf := obs.NewBuffer("classify")
	r.tap = obs.NewTap(buf, 0)
	r.dist = []int32{-1, capacity - 1, capacity}
	for ref := range r.dist {
		r.classify(ref, 7, units.VPN(10+ref))
	}
	if got := [3]int64{r.res.Compulsory, r.res.Conflict, r.res.Capacity}; got != [3]int64{1, 1, 1} {
		t.Errorf("compulsory, conflict, capacity = %v, want one each", got)
	}
	want := []obs.Kind{obs.KindMissCompulsory, obs.KindMissConflict, obs.KindMissCapacity}
	evs := buf.Events()
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Kind != want[i] || ev.PID != 7 || ev.Arg != uint32(10+i) {
			t.Errorf("distance %d: event %v pid %d arg %d, want %v pid 7 arg %d", r.dist[i], ev.Kind, ev.PID, ev.Arg, want[i], 10+i)
		}
	}
}

// A prepared trace lists the process slots trace.PIDs lists and gives
// each record the slot of its pid, on every application, with one
// scratch reused across all of them so a leftover entry would show.
func TestSurveyMatchesTraceSummaries(t *testing.T) {
	scr := NewRunScratch()
	for _, app := range workload.Names() {
		tr := smallTrace(t, app, 0.2)
		p := scr.prepare(tr)
		if want := tr.PIDs(); !slices.Equal(p.pids, want) {
			t.Errorf("%s: prepared pids %v, trace.PIDs %v", app, p.pids, want)
		}
		for i, rec := range p.recs {
			if p.pids[p.slots[i]] != rec.PID {
				t.Fatalf("%s: record %d of pid %v in slot %d", app, i, rec.PID, p.slots[i])
			}
		}
	}
}

// A scratch warmed by a larger application under a different
// configuration holds bigger tables, so every page table, policy table
// and frame array starts the next run with a different capacity and
// slot order than a fresh one. Results must not notice: eviction-heavy
// runs of every policy and both mechanisms equal their fresh-scratch
// twins field for field.
func TestWarmScratchMatchesFresh(t *testing.T) {
	warm := NewRunScratch()
	big := cfg(UTLB, 4096)
	big.Prepin = 4
	if _, err := RunWith(smallTrace(t, "radix", 0.3), big, warm); err != nil {
		t.Fatal(err)
	}
	tr := smallTrace(t, "fft", 0.1)
	for _, mech := range []Mechanism{UTLB, Interrupt} {
		for _, p := range []core.PolicyKind{core.LRU, core.MRU, core.LFU, core.MFU, core.Random} {
			c := cfg(mech, 256)
			c.Policy = p
			c.PinLimitPages = 64
			c.Seed = 9
			fresh, err := RunWith(tr, c, nil)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := RunWith(tr, c, warm)
			if err != nil {
				t.Fatal(err)
			}
			if fresh != reused {
				t.Errorf("%v/%v: warm scratch changed the result:\nfresh %+v\nwarm  %+v", mech, p, fresh, reused)
			}
			if fresh.Unpins == 0 {
				t.Errorf("%v/%v: no evictions, the victim scan was not exercised", mech, p)
			}
		}
	}
}

// A scratch memoises each trace's prepared form, so every way a
// memoised trace can be wrong must be caught: a trace rewritten in
// place between two runs (same backing array, same length), more
// distinct traces than the memo keeps, round-robin so that each run
// follows an eviction, and an unsorted input, which must also equal
// its sorted copy. Each run on the shared scratch equals a run of the
// same trace on a fresh one, and a memo hit allocates nothing.
func TestPreparedMemoMatchesFresh(t *testing.T) {
	c := cfg(UTLB, 256)
	scr := NewRunScratch()
	same := func(what string, tr trace.Trace) Result {
		t.Helper()
		fresh, err := RunWith(tr, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		memo, err := RunWith(tr, c, scr)
		if err != nil {
			t.Fatal(err)
		}
		if fresh != memo {
			t.Errorf("%s: memoised scratch changed the result:\nfresh %+v\nmemo  %+v", what, fresh, memo)
		}
		return fresh
	}

	tr := slices.Clone(smallTrace(t, "fft", 0.05))
	before := same("before the rewrite", tr)
	if allocs := testing.AllocsPerRun(5, func() { scr.prepare(tr) }); allocs != 0 {
		t.Errorf("a memo hit allocates %v times", allocs)
	}
	for i := range tr { // the same records folded onto 64 pages: every reuse distance moves
		tr[i].VA %= 64 * units.PageSize
	}
	after := same("rewritten in place", tr)
	if after == before {
		t.Error("the rewrite changed no counter; the case proves nothing")
	}
	tr[len(tr)-1].VA = 1000 * units.PageSize // the last record alone: a hit must compare all of them
	if last := same("last record rewritten", tr); last == after {
		t.Error("rewriting the last record changed no counter; the case proves nothing")
	}

	var traces []trace.Trace
	for _, app := range workload.Names() {
		for _, seed := range []int64{1, 2} {
			s, err := workload.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, s.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: seed, Scale: 0.02}))
		}
	}
	if len(traces) <= memoTraces {
		t.Fatalf("%d traces do not overflow a %d-trace memo", len(traces), memoTraces)
	}
	for pass := 0; pass < 2; pass++ {
		for i, tr := range traces {
			same(fmt.Sprintf("pass %d, trace %d of %d", pass, i, len(traces)), tr)
		}
	}
	if n := slices.Index(scr.memo.entries[:], nil); n >= 0 {
		t.Errorf("memo holds %d traces, want %d", n, memoTraces)
	}

	sorted := smallTrace(t, "barnes", 0.05)
	k := len(sorted) / 2 // rotate at a time step, so sorting restores every tie's order
	for sorted[k].Time == sorted[k-1].Time {
		k++
	}
	shuffled := append(slices.Clone(sorted[k:]), sorted[:k]...)
	if got, want := same("unsorted", shuffled), same("its sorted copy", sorted); got != want {
		t.Errorf("unsorted input %+v, sorted %+v", got, want)
	}
}

// TestPreparedMemoIgnoresPadding: the memo compares records as bytes,
// so two traces that differ only in a record's padding may miss where
// a field compare would hit. Either way each gets a prepared form of
// its own records, and runs of both equal a fresh run.
func TestPreparedMemoIgnoresPadding(t *testing.T) {
	c := cfg(UTLB, 256)
	plain := slices.Clone(smallTrace(t, "fft", 0.05))
	padded := slices.Clone(plain)
	const size = unsafe.Sizeof(trace.Record{})
	end := unsafe.Offsetof(trace.Record{}.Op) + unsafe.Sizeof(trace.Record{}.Op)
	if end == size {
		t.Fatal("trace.Record has no trailing padding to vary")
	}
	for i := range padded {
		(*[size]byte)(unsafe.Pointer(&padded[i]))[end] = 0xa5
	}
	if !slices.Equal(plain, padded) {
		t.Fatal("writing padding changed a field")
	}
	fresh, err := RunWith(plain, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	scr := NewRunScratch()
	for _, tr := range []trace.Trace{plain, padded, plain, padded} {
		if p := scr.prepare(tr); !slices.Equal(p.src, tr) || len(p.slots) != len(tr) {
			t.Fatal("the memo prepared other records than the trace's")
		}
		if got, err := RunWith(tr, c, scr); err != nil || got != fresh {
			t.Errorf("memoised run %+v (%v), fresh %+v", got, err, fresh)
		}
	}
}

// BenchmarkRunWith times the benchmark's two simulator mixes on one
// RunScratch, so the replay loop can be profiled without bench/ (`make
// profile-overlap` writes the overlap half's CPU profile): paper is
// one pass over the 14 jobs of sim_paper (the seven Table-3 apps at
// paper scale × UTLB and Intr, 1 K-entry cache), overlap one
// BulkTransfer run through the event engine on 2 DMA channels with
// batch and prefetch width 8, as in sim_overlap. ns/lookup is wall
// time over the lookups the runs replay.
func BenchmarkRunWith(b *testing.B) {
	type job struct {
		tr trace.Trace
		c  Config
	}
	paper := func() (jobs []job) {
		for _, app := range workload.Names() {
			s, err := workload.ByName(app)
			if err != nil {
				b.Fatal(err)
			}
			tr := s.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: 1998, Scale: 1})
			for _, m := range []Mechanism{UTLB, Interrupt} {
				c := cfg(m, 1024)
				c.Seed = 1998
				jobs = append(jobs, job{tr, c})
			}
		}
		return jobs
	}
	overlap := func() []job {
		c := DefaultConfig()
		c.Prefetch, c.BatchPages = 8, 8
		c.Overlap = OverlapConfig{Enabled: true, DMAChannels: 2}
		return []job{{workload.BulkTransfer(0, 1, 1998, 1), c}}
	}
	for _, mix := range []struct {
		name string
		jobs func() []job
	}{{"paper", paper}, {"overlap", overlap}} {
		b.Run(mix.name, func(b *testing.B) {
			jobs, scr := mix.jobs(), NewRunScratch()
			var lookups int64
			for i := 0; i < b.N+1; i++ {
				if i == 1 { // the first pass warms the scratch
					b.ResetTimer()
					lookups = 0
				}
				for _, j := range jobs {
					res, err := RunWith(j.tr, j.c, scr)
					if err != nil {
						b.Fatal(err)
					}
					lookups += res.Lookups
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lookups), "ns/lookup")
		})
	}
}

// Run's pooled scratches share one memo: runs from several goroutines
// at once, over more traces than it keeps, each equal their sequential
// twin.
func TestPooledMemoConcurrent(t *testing.T) {
	var traces []trace.Trace
	for _, seed := range []int64{1, 2} {
		for _, app := range workload.Names() {
			s, err := workload.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, s.Generate(workload.Config{Node: 0, FirstPID: 1, Seed: seed, Scale: 0.02}))
		}
	}
	c := cfg(Interrupt, 128)
	want := make([]Result, len(traces))
	for i, tr := range traces {
		res, err := RunWith(tr, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range traces {
				i := (k + 3*g) % len(traces)
				if got, err := Run(traces[i], c); err != nil || got != want[i] {
					t.Errorf("goroutine %d, trace %d: %+v (%v), want %+v", g, i, got, err, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// A trace's build runs outside the memo's lock: while one is in
// progress, a run of the same trace waits for that build rather than
// starting its own, and a run of another trace prepares without
// waiting.
func TestPrepareBuildsOutsideTheLock(t *testing.T) {
	a, b := smallTrace(t, "fft", 0.02), smallTrace(t, "lu", 0.02)
	scr := NewRunScratch()
	scr.memo = new(traceMemo)
	building := &prepared{src: slices.Clone(a)}
	scr.memo.entries[0] = building
	started, release := make(chan struct{}), make(chan struct{})
	go building.once.Do(func() { close(started); <-release })
	<-started

	same := make(chan *prepared)
	go func() { same <- scr.prepare(a) }()
	select {
	case <-same:
		t.Fatal("a run of the trace being built did not wait for its build")
	case <-time.After(50 * time.Millisecond):
	}
	other := make(chan *prepared)
	go func() { other <- scr.prepare(b) }()
	select {
	case p := <-other:
		if !slices.Equal(p.recs, b) {
			t.Error("the other trace's prepared records differ from it")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a run of another trace waited for a build in progress")
	}
	close(release)
	if p := <-same; p != building {
		t.Error("a run of the trace being built got an entry of its own")
	}
}

// ResetTraceMemo empties the memo Run's pooled scratches share.
func TestResetTraceMemo(t *testing.T) {
	if _, err := Run(smallTrace(t, "fft", 0.02), cfg(UTLB, 128)); err != nil {
		t.Fatal(err)
	}
	if pooledMemo.entries[0] == nil {
		t.Fatal("a run left the pooled memo empty")
	}
	ResetTraceMemo()
	if i := slices.IndexFunc(pooledMemo.entries[:], func(p *prepared) bool { return p != nil }); i >= 0 {
		t.Errorf("entry %d survived the reset", i)
	}
}
