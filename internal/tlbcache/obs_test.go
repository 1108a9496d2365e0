package tlbcache

import (
	"testing"

	"utlb/internal/obs"
	"utlb/internal/units"
)

func obsCache(t *testing.T) (*Cache, *obs.Buffer, *units.Clock) {
	t.Helper()
	c := New(Config{Entries: 8, Ways: 2, IndexOffset: true})
	buf := obs.NewBuffer("cache-test")
	clock := &units.Clock{}
	c.SetTap(obs.NewTap(buf, 3), clock)
	return c, buf, clock
}

// TestInstrumentedLifecycle walks one line through its whole life —
// miss, fill, hit, eviction, invalidation — and checks the emitted
// event stream matches step for step.
func TestInstrumentedLifecycle(t *testing.T) {
	c, buf, clock := obsCache(t)
	k := Key{PID: 2, VPN: 40}

	c.Lookup(k) // miss
	clock.AdvanceTo(clock.Now() + 100)
	c.Insert(k, 7) // fill
	clock.AdvanceTo(clock.Now() + 100)
	c.Lookup(k) // hit
	clock.AdvanceTo(clock.Now() + 100)
	c.Invalidate(k)

	want := []obs.Kind{obs.KindCacheMiss, obs.KindCacheFill, obs.KindCacheHit, obs.KindCacheInvalidate}
	evs := buf.Events()
	if len(evs) != len(want) {
		t.Fatalf("events = %d, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Kind != want[i] {
			t.Errorf("event %d = %s, want %s", i, ev.Kind, want[i])
		}
		if units.VPN(ev.Arg) != k.VPN || ev.PID != k.PID || ev.Node != 3 {
			t.Errorf("event %d tagged %+v", i, ev)
		}
		if ev.Time != units.Time(100*i) {
			t.Errorf("event %d at %d, want %d", i, ev.Time, 100*i)
		}
	}

	// Filling a full set records the eviction before the fill.
	buf2 := obs.NewBuffer("evict")
	c.SetTap(obs.NewTap(buf2, 3), clock)
	same := func(vpn units.VPN) Key { return Key{PID: 2, VPN: vpn} }
	// Two ways per set: three keys mapping to one set force an eviction.
	a, b := same(40), same(40+8/2) // same set index modulo numSets=4
	c.Insert(a, 1)
	c.Insert(b, 2)
	c.Lookup(a) // keep a recent; b becomes LRU
	n := buf2.Len()
	evKey, evicted := c.Insert(same(40+8), 3)
	if !evicted {
		t.Fatal("expected an eviction")
	}
	evs2 := buf2.Events()[n:]
	if len(evs2) != 2 || evs2[0].Kind != obs.KindCacheEvict || evs2[1].Kind != obs.KindCacheFill {
		t.Fatalf("eviction events = %v", evs2)
	}
	if units.VPN(evs2[0].Arg) != evKey.VPN {
		t.Errorf("evict arg %d, want %d", evs2[0].Arg, evKey.VPN)
	}

	// InvalidateProcess folds to one event carrying the count; a pid
	// with no lines records nothing.
	buf3 := obs.NewBuffer("invproc")
	c.SetTap(obs.NewTap(buf3, 3), clock)
	if n := c.InvalidateProcess(2); n == 0 {
		t.Fatal("expected resident lines for pid 2")
	} else if buf3.Len() != 1 || buf3.Events()[0].Arg2 != uint32(n) {
		t.Fatalf("invalidate-process events = %v, want one with count", buf3.Events())
	}
	if c.InvalidateProcess(99); buf3.Len() != 1 {
		t.Error("empty invalidate-process recorded an event")
	}
}

// TestUninstrumentedLookupZeroAlloc pins the zero-overhead claim at
// its sharpest point: the per-translation Lookup with no recorder
// attached must not allocate at all.
func TestUninstrumentedLookupZeroAlloc(t *testing.T) {
	c := New(Config{Entries: 1024, Ways: 1, IndexOffset: true})
	k := Key{PID: 1, VPN: 7}
	c.Insert(k, 9)
	if allocs := testing.AllocsPerRun(1000, func() {
		if !c.Lookup(k).Hit {
			t.Fatal("miss")
		}
	}); allocs != 0 {
		t.Errorf("uninstrumented Lookup allocates %.1f/op, want 0", allocs)
	}
	miss := Key{PID: 1, VPN: 8}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Lookup(miss)
	}); allocs != 0 {
		t.Errorf("uninstrumented miss Lookup allocates %.1f/op, want 0", allocs)
	}
}

// TestInstrumentDetach checks passing nil detaches cleanly.
func TestInstrumentDetach(t *testing.T) {
	c, buf, _ := obsCache(t)
	c.Lookup(Key{PID: 1, VPN: 1})
	n := buf.Len()
	c.SetTap(nil, nil)
	c.Lookup(Key{PID: 1, VPN: 1})
	if buf.Len() != n {
		t.Error("detached cache kept recording")
	}
}

// TestXferCursorStamping asserts cache events inherit the handle's
// current transfer id and revert to 0 when no transfer is in progress.
func TestXferCursorStamping(t *testing.T) {
	c := New(Config{Entries: 8, Ways: 2, IndexOffset: true})
	buf := obs.NewBuffer("cache-test")
	tap := obs.NewTap(buf, 3)
	c.SetTap(tap, &units.Clock{})

	// No transfer begun yet: events unattributed.
	c.Lookup(Key{PID: 1, VPN: 1})
	if ev := buf.Events()[buf.Len()-1]; ev.Xfer != 0 {
		t.Fatalf("event outside any transfer carries id %d", ev.Xfer)
	}

	id := tap.Begin()
	c.Lookup(Key{PID: 1, VPN: 2})
	if ev := buf.Events()[buf.Len()-1]; uint64(ev.Xfer) != id {
		t.Fatalf("event id %d, want %d", ev.Xfer, id)
	}
	tap.Clear()
	c.Lookup(Key{PID: 1, VPN: 3})
	if ev := buf.Events()[buf.Len()-1]; ev.Xfer != 0 {
		t.Fatalf("event after Clear carries id %d", ev.Xfer)
	}
	if next := tap.Begin(); next != id+1 {
		t.Fatalf("ids not monotonic: %d after %d", next, id)
	}
}
