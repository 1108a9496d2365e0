package tlbcache

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"utlb/internal/units"
)

// put and get are the value-copying forms of Ensure and Ref the tests
// read most naturally in.
func put(m *PageMap[int32], vpn units.VPN, v int32) {
	p, _ := m.Ensure(vpn)
	*p = v
}

func get(m *PageMap[int32], vpn units.VPN) (int32, bool) {
	if p := m.Ref(vpn); p != nil {
		return *p, true
	}
	return 0, false
}

// opVPNs is the key space of the op streams: pages on both sides of
// every kind of leaf edge — the first and last page of the space and
// of a leaf, neighbouring leaves, and runs inside one leaf and one
// bitmap word.
var opVPNs = [24]units.VPN{
	0, 1, 2, 63, 64, 65,
	leafLen - 2, leafLen - 1, leafLen, leafLen + 1, 2*leafLen - 1, 2 * leafLen,
	5*leafLen + 7, 5*leafLen + 8, 5*leafLen + 9, 5*leafLen + 200,
	dirLen/2*leafLen - 1, dirLen / 2 * leafLen, dirLen/2*leafLen + 1, dirLen/2*leafLen + 640,
	units.VASpacePages - leafLen - 1, units.VASpacePages - leafLen, units.VASpacePages - 2, units.VASpacePages - 1,
}

// applyPageMapOps drives a PageMap and a shadow map through the same
// encoded operation stream and reports the first divergence. Each op
// byte selects insert/delete/lookup on a page of opVPNs, so updates,
// deletes of absent pages and leaves that empty and refill all occur;
// the high bit routes inserts through Ensure and lookups through an
// in-place Ref update, byte 255 is a Reset, and the table's iteration
// is checked against the shadow along the way.
func applyPageMapOps(t *testing.T, ops []byte) {
	t.Helper()
	m := new(PageMap[int32])
	shadow := map[units.VPN]int32{}
	for i, op := range ops {
		vpn := opVPNs[(op>>3)%24]
		want, had := shadow[vpn]
		switch {
		case op == 255: // reset
			m.Reset()
			clear(shadow)
		case op%3 == 0 && op&0x80 != 0: // insert through Ensure
			p, fresh := m.Ensure(vpn)
			if fresh == had || (fresh && *p != 0) || (!fresh && *p != want) {
				t.Fatalf("op %d: Ensure(%#x) = (%d,%v), shadow (%d,%v)", i, vpn, *p, fresh, want, had)
			}
			*p = int32(i)
			shadow[vpn] = int32(i)
		case op%3 == 0: // put
			put(m, vpn, int32(i))
			shadow[vpn] = int32(i)
		case op%3 == 1: // delete
			if got := m.Delete(vpn); got != had {
				t.Fatalf("op %d: Delete(%#x) = %v, shadow had %v", i, vpn, got, had)
			}
			delete(shadow, vpn)
		case op&0x80 != 0: // in-place update through Ref
			p := m.Ref(vpn)
			if (p != nil) != had || (had && *p != want) {
				t.Fatalf("op %d: Ref(%#x) diverged from shadow (%d,%v)", i, vpn, want, had)
			}
			if had {
				*p++
				shadow[vpn]++
			}
		default: // get
			if v, ok := get(m, vpn); ok != had || (ok && v != want) {
				t.Fatalf("op %d: Get(%#x) = (%d,%v), shadow (%d,%v)", i, vpn, v, ok, want, had)
			}
		}
		if m.Len() != len(shadow) {
			t.Fatalf("op %d: Len = %d, shadow %d", i, m.Len(), len(shadow))
		}
		if i%16 == 15 {
			checkPageMapIteration(t, m, shadow)
		}
	}
	// Final sweep: iteration and Get both see exactly the shadow, and
	// a probe of the whole key space finds nothing extra.
	checkPageMapIteration(t, m, shadow)
	for _, vpn := range opVPNs {
		want, had := shadow[vpn]
		if v, ok := get(m, vpn); ok != had || v != want {
			t.Fatalf("final: Get(%#x) = (%d,%v), shadow (%d,%v)", vpn, v, ok, want, had)
		}
	}
}

// checkPageMapIteration walks the table and requires it to visit
// exactly the shadow's entries, each once, in ascending VPN order.
func checkPageMapIteration(t *testing.T, m *PageMap[int32], shadow map[units.VPN]int32) {
	t.Helper()
	var visited []units.VPN
	m.Each(func(vpn units.VPN, v *int32) {
		if want, had := shadow[vpn]; !had || *v != want {
			t.Fatalf("iteration: page %#x holds %d, shadow (%d,%v)", vpn, *v, want, had)
		}
		visited = append(visited, vpn)
	})
	if len(visited) != len(shadow) {
		t.Fatalf("iteration visited %d entries, shadow holds %d", len(visited), len(shadow))
	}
	if !slices.IsSorted(visited) || len(slices.Compact(visited)) != len(shadow) {
		t.Fatalf("iteration order %#x is not strictly ascending", visited)
	}
}

func TestDenseAgainstShadowMap(t *testing.T) {
	f := func(ops []byte) bool {
		// Reuse the fatal-on-divergence driver; quick.Check only needs
		// the bool, so run it under a subtest that can fail.
		ok := true
		t.Run("seq", func(st *testing.T) {
			defer func() {
				if st.Failed() {
					ok = false
				}
			}()
			applyPageMapOps(st, ops)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func FuzzDenseVsShadow(f *testing.F) {
	f.Add([]byte{0, 3, 6, 1, 4, 2})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2})
	// A long all-insert run fills every page of opVPNs, all leaves.
	long := make([]byte, 600)
	for i := range long {
		long[i] = byte(i * 3)
	}
	f.Add(long)
	// High-bit ops: Ensure inserts, Ref updates, and a Reset mid-stream.
	f.Add([]byte{0x80 | 1, 0x80 | 4, 0x83, 0x86, 255, 0x80 | 1, 0x83, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		applyPageMapOps(t, ops)
	})
}

func TestDenseZeroKeyIsOrdinary(t *testing.T) {
	m := new(PageMap[int32])
	if _, ok := get(m, 0); ok {
		t.Fatal("page 0 present in empty table")
	}
	put(m, 0, 5)
	if v, ok := get(m, 0); !ok || v != 5 {
		t.Fatalf("page 0 = (%d,%v)", v, ok)
	}
	if !m.Delete(0) {
		t.Fatal("page 0 not deletable")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// Iteration is ascending VPN whatever order the pages went in, and
// after a Reset that moved the leaves to other directory slots.
func TestPageMapIteratesAscending(t *testing.T) {
	m := new(PageMap[int32])
	for _, order := range [][]units.VPN{
		{units.VASpacePages - 1, 3, 2*leafLen + 1, 0, leafLen, 2 * leafLen, 64, 63},
		{7*leafLen + 1, 7 * leafLen, 1, 9 * leafLen},
	} {
		m.Reset()
		for i, vpn := range order {
			put(m, vpn, int32(i))
		}
		var got []units.VPN
		m.Each(func(vpn units.VPN, _ *int32) { got = append(got, vpn) })
		want := slices.Clone(order)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("Each visited %#x, want %#x", got, want)
		}
	}
}

// The pages on either side of a leaf edge and at both ends of the
// space are separate entries: none aliases another, and deleting one
// leaves its neighbours.
func TestPageMapLeafEdges(t *testing.T) {
	edges := []units.VPN{0, leafLen - 1, leafLen, units.VASpacePages - 1}
	m := new(PageMap[int32])
	for i, vpn := range edges {
		put(m, vpn, int32(i+1))
	}
	for i, vpn := range edges {
		if v, ok := get(m, vpn); !ok || v != int32(i+1) {
			t.Fatalf("Get(%#x) = (%d,%v), want (%d,true)", vpn, v, ok, i+1)
		}
	}
	for _, vpn := range []units.VPN{1, leafLen - 2, leafLen + 1, units.VASpacePages - 2} {
		if _, ok := get(m, vpn); ok {
			t.Fatalf("page %#x present, never inserted", vpn)
		}
	}
	if !m.Delete(leafLen - 1) {
		t.Fatal("Delete(leafLen-1) missed")
	}
	if _, ok := get(m, leafLen); !ok || m.Len() != 3 {
		t.Fatalf("deleting leafLen-1 disturbed its neighbour: Len %d", m.Len())
	}
}

func TestPageMapPanicsOutsideSpace(t *testing.T) {
	for name, op := range map[string]func(*PageMap[int32]){
		"Ref":    func(m *PageMap[int32]) { m.Ref(units.VASpacePages) },
		"Ensure": func(m *PageMap[int32]) { m.Ensure(units.VASpacePages) },
		"Delete": func(m *PageMap[int32]) { m.Delete(units.VASpacePages) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside") {
					t.Errorf("%s(%#x) did not panic with the out-of-space message", name, units.VASpacePages)
				}
			}()
			op(new(PageMap[int32]))
		}()
	}
}

// Reset keeps every leaf, so refilling the same pages — or as many
// leaves' worth of other pages — allocates nothing.
func TestPageMapRefillAllocatesNothing(t *testing.T) {
	m := new(PageMap[int32])
	fill := func(base units.VPN) {
		for vpn := base; vpn < base+3*leafLen; vpn += 5 {
			put(m, vpn, int32(vpn))
		}
	}
	fill(0)
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if _, ok := get(m, 5); ok {
		t.Fatal("entry survived Reset")
	}
	if n := testing.AllocsPerRun(10, func() { m.Reset(); fill(0) }); n != 0 {
		t.Errorf("Reset and refill of the same pages: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { m.Reset(); fill(100 * leafLen) }); n != 0 {
		t.Errorf("Reset and refill of other pages: %v allocs, want 0", n)
	}
}
