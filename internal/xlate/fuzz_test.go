package xlate

import (
	"testing"

	"utlb/internal/units"
)

// FuzzServiceVsShadow drives an op sequence decoded from raw bytes
// through a small sharded service and a single shadow map, checking
// the cache-correctness invariants that survive eviction:
//
//   - a hit must return the exact translation the shadow holds;
//   - a key the shadow does not hold (never inserted, or invalidated
//     since) must miss — the service can forget, never fabricate;
//   - totals stay coherent (lookups = hits + misses, occupancy within
//     capacity).
//
// Each op is three bytes: op, pid, vpn. The batch ops (LookupMany,
// InsertMany) take 1 + op>>3 keys of that pid, at vpn + j² mod 32 for
// the j-th, so a longer batch names some keys twice; InsertMany gives
// every position its own frame, and the shadow applies them in batch
// order, so a later lookup catches duplicates landing out of order.
// Shard-count edge cases are exercised explicitly: the same sequence
// runs at 1, 2 and 8 shards against the same shadow. The seed corpus
// is in testdata/fuzz/FuzzServiceVsShadow.
func FuzzServiceVsShadow(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc})
	f.Add([]byte("insert-lookup-invalidate-repeat"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out []Result
		for _, shards := range []int{1, 2, 8} {
			svc, err := New(Config{Shards: shards, Entries: 16, Ways: 2, IndexOffset: true})
			if err != nil {
				t.Fatal(err)
			}
			shadow := map[Key]units.PFN{}
			ops := int64(0)
			check := func(i int, k Key, r Result) {
				want, present := shadow[k]
				if r.Hit && !present {
					t.Fatalf("shards=%d op %d: hit on %+v the shadow never saw", shards, i, k)
				}
				if r.Hit && r.PFN != want {
					t.Fatalf("shards=%d op %d: %+v -> %d, shadow holds %d", shards, i, k, r.PFN, want)
				}
			}
			for i := 0; i+2 < len(data); i += 3 {
				op, pid, vpn := data[i]&7, 1+int(data[i+1]&7), int(data[i+2])
				k := key(pid, vpn)
				keys := make([]Key, 1+data[i]>>3)
				for j := range keys {
					keys[j] = key(pid, vpn+j*j%32)
				}
				switch op {
				case 0: // insert
					svc.Insert(k, SyntheticPFN(k))
					shadow[k] = SyntheticPFN(k)
				case 1: // invalidate
					svc.Invalidate(k)
					delete(shadow, k)
				case 2: // process exit
					svc.InvalidateProcess(units.ProcID(pid))
					for sk := range shadow {
						if sk.PID == units.ProcID(pid) {
							delete(shadow, sk)
						}
					}
				case 3: // batch insert
					pfns := make([]units.PFN, len(keys))
					for j, bk := range keys {
						pfns[j] = SyntheticPFN(bk) + units.PFN(j)
					}
					svc.InsertMany(keys, pfns)
					for j, bk := range keys {
						shadow[bk] = pfns[j]
					}
				case 4: // batch lookup
					ops += int64(len(keys))
					out = svc.LookupMany(keys, out)
					for j, bk := range keys {
						check(i, bk, out[j])
					}
				default: // lookup
					ops++
					check(i, k, svc.Lookup(k))
				}
			}
			st := svc.Stats()
			if st.Total.Lookups != ops || st.Total.Lookups != st.Total.Hits+st.Total.Misses {
				t.Fatalf("shards=%d: lookups=%d (issued %d), hits+misses=%d",
					shards, st.Total.Lookups, ops, st.Total.Hits+st.Total.Misses)
			}
			if cap := int64(shards * 16); st.Total.Occupancy > cap {
				t.Fatalf("shards=%d: occupancy %d exceeds capacity %d", shards, st.Total.Occupancy, cap)
			}
		}
	})
}
