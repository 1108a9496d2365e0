package tlbcache

import (
	"testing"
	"testing/quick"

	"utlb/internal/units"
)

// put and get are the value-copying forms of Ensure and Ref the tests
// read most naturally in.
func put(d *Dense[int32], k Key, v int32) {
	p, _ := d.Ensure(k)
	*p = v
}

func get(d *Dense[int32], k Key) (int32, bool) {
	if p := d.Ref(k); p != nil {
		return *p, true
	}
	return 0, false
}

// applyDenseOps drives a Dense and a shadow map through the same
// encoded operation stream and reports the first divergence. Each op
// byte selects insert/delete/lookup on a key drawn from a small space
// so collisions, updates and backshift chains all occur; the high bit
// routes inserts through Ensure and lookups through an in-place Ref
// update, byte 255 is a Reset, and the table's slot-order iteration is
// checked against the shadow along the way.
func applyDenseOps(t *testing.T, ops []byte) {
	t.Helper()
	d := NewDense[int32](0)
	shadow := map[Key]int32{}
	for i, op := range ops {
		k := Key{PID: units.ProcID(op % 5), VPN: units.VPN((op >> 3) % 24)}
		want, had := shadow[k]
		switch {
		case op == 255: // reset
			d.Reset()
			clear(shadow)
		case op%3 == 0 && op&0x80 != 0: // insert through Ensure
			p, fresh := d.Ensure(k)
			if fresh == had || (fresh && *p != 0) || (!fresh && *p != want) {
				t.Fatalf("op %d: Ensure(%v) = (%d,%v), shadow (%d,%v)", i, k, *p, fresh, want, had)
			}
			*p = int32(i)
			shadow[k] = int32(i)
		case op%3 == 0: // put
			put(d, k, int32(i))
			shadow[k] = int32(i)
		case op%3 == 1: // delete
			if got := d.Delete(k); got != had {
				t.Fatalf("op %d: Delete(%v) = %v, shadow had %v", i, k, got, had)
			}
			delete(shadow, k)
		case op&0x80 != 0: // in-place update through Ref
			p := d.Ref(k)
			if (p != nil) != had || (had && *p != want) {
				t.Fatalf("op %d: Ref(%v) diverged from shadow (%d,%v)", i, k, want, had)
			}
			if had {
				*p++
				shadow[k]++
			}
		default: // get
			if v, ok := get(d, k); ok != had || (ok && v != want) {
				t.Fatalf("op %d: Get(%v) = (%d,%v), shadow (%d,%v)", i, k, v, ok, want, had)
			}
		}
		if d.Len() != len(shadow) {
			t.Fatalf("op %d: Len = %d, shadow %d", i, d.Len(), len(shadow))
		}
		if i%16 == 15 {
			checkDenseIteration(t, d, shadow)
		}
	}
	// Final sweep: iteration and Get both see exactly the shadow, and
	// a probe of the whole key space finds nothing extra.
	checkDenseIteration(t, d, shadow)
	for k, want := range shadow {
		if v, ok := get(d, k); !ok || v != want {
			t.Fatalf("final: Get(%v) = (%d,%v), want (%d,true)", k, v, ok, want)
		}
	}
	for pid := units.ProcID(0); pid < 5; pid++ {
		for vpn := units.VPN(0); vpn < 24; vpn++ {
			k := Key{PID: pid, VPN: vpn}
			_, had := shadow[k]
			if _, ok := get(d, k); ok != had {
				t.Fatalf("final: presence of %v diverged", k)
			}
		}
	}
}

// checkDenseIteration walks every slot and requires the live ones to
// be exactly the shadow's entries, each visited once.
func checkDenseIteration(t *testing.T, d *Dense[int32], shadow map[Key]int32) {
	t.Helper()
	visited := 0
	for i := 0; i < d.Cap(); i++ {
		k, v, live := d.Slot(i)
		if !live {
			continue
		}
		visited++
		if want, had := shadow[k]; !had || *v != want {
			t.Fatalf("iteration: slot %d holds %v=%d, shadow (%d,%v)", i, k, *v, want, had)
		}
	}
	if visited != len(shadow) {
		t.Fatalf("iteration visited %d entries, shadow holds %d", visited, len(shadow))
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
			applyDenseOps(st, ops)
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
	// A long all-insert run forces several grow() rehashes.
	long := make([]byte, 600)
	for i := range long {
		long[i] = byte(i * 3)
	}
	f.Add(long)
	// High-bit ops: Ensure inserts, Ref updates, and a Reset mid-stream.
	f.Add([]byte{0x80 | 1, 0x80 | 4, 0x83, 0x86, 255, 0x80 | 1, 0x83, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		applyDenseOps(t, ops)
	})
}

// Backshift deletion must leave no unreachable keys even when a whole
// cluster hashes to one home slot and the middle is deleted.
func TestDenseBackshiftCluster(t *testing.T) {
	d := NewDense[int32](0)
	keys := make([]Key, 0, 40)
	for v := units.VPN(0); v < 40; v++ {
		k := Key{PID: 7, VPN: v}
		keys = append(keys, k)
		put(d, k, int32(v))
	}
	// Delete every third key, then verify the rest are all reachable.
	for i := 0; i < len(keys); i += 3 {
		if !d.Delete(keys[i]) {
			t.Fatalf("Delete(%v) missed", keys[i])
		}
	}
	for i, k := range keys {
		v, ok := get(d, k)
		if i%3 == 0 {
			if ok {
				t.Fatalf("deleted key %v still present", k)
			}
			continue
		}
		if !ok || v != int32(i) {
			t.Fatalf("Get(%v) = (%d,%v), want (%d,true)", k, v, ok, i)
		}
	}
}

func TestDenseResetKeepsCapacity(t *testing.T) {
	d := NewDense[int32](1000)
	cap0 := d.Cap()
	for v := units.VPN(0); v < 500; v++ {
		put(d, Key{PID: 1, VPN: v}, int32(v))
	}
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("Len after Reset = %d", d.Len())
	}
	if d.Cap() != cap0 {
		t.Fatalf("Reset changed capacity %d -> %d", cap0, d.Cap())
	}
	if _, ok := get(d, Key{PID: 1, VPN: 3}); ok {
		t.Fatal("entry survived Reset")
	}
	// Table is fully usable after Reset.
	put(d, Key{PID: 2, VPN: 9}, 42)
	if v, ok := get(d, Key{PID: 2, VPN: 9}); !ok || v != 42 {
		t.Fatalf("Get after Reset = (%d,%v)", v, ok)
	}
}

func TestDenseZeroKeyIsOrdinary(t *testing.T) {
	d := NewDense[int32](0)
	if _, ok := get(d, Key{}); ok {
		t.Fatal("zero key present in empty table")
	}
	put(d, Key{}, 5)
	if v, ok := get(d, Key{}); !ok || v != 5 {
		t.Fatalf("zero key = (%d,%v)", v, ok)
	}
	if !d.Delete(Key{}) {
		t.Fatal("zero key not deletable")
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
}
