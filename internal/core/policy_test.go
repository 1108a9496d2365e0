package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"utlb/internal/units"
)

func TestPolicyKindStrings(t *testing.T) {
	names := map[PolicyKind]string{LRU: "LRU", MRU: "MRU", LFU: "LFU", MFU: "MFU", Random: "RANDOM"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
	if PolicyKind(99).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestLRUVictim(t *testing.T) {
	p := newPolicy(LRU, 0)
	for _, v := range []units.VPN{1, 2, 3} {
		p.Insert(v)
	}
	p.Touch(1) // order now: 2, 3, 1
	if v, ok := p.Victim(); !ok || v != 2 {
		t.Errorf("LRU victim = %d (%v), want 2", v, ok)
	}
	p.Touch(2)
	if v, _ := p.Victim(); v != 3 {
		t.Errorf("LRU victim = %d, want 3", v)
	}
}

func TestMRUVictim(t *testing.T) {
	p := newPolicy(MRU, 0)
	for _, v := range []units.VPN{1, 2, 3} {
		p.Insert(v)
	}
	p.Touch(2)
	if v, ok := p.Victim(); !ok || v != 2 {
		t.Errorf("MRU victim = %d (%v), want 2", v, ok)
	}
}

func TestLFUVictim(t *testing.T) {
	p := newPolicy(LFU, 0)
	for _, v := range []units.VPN{1, 2, 3} {
		p.Insert(v)
	}
	p.Touch(1)
	p.Touch(1)
	p.Touch(3)
	// freq: 1->3, 2->1, 3->2
	if v, _ := p.Victim(); v != 2 {
		t.Errorf("LFU victim = %d, want 2", v)
	}
}

func TestMFUVictim(t *testing.T) {
	p := newPolicy(MFU, 0)
	for _, v := range []units.VPN{1, 2, 3} {
		p.Insert(v)
	}
	p.Touch(1)
	p.Touch(1)
	if v, _ := p.Victim(); v != 1 {
		t.Errorf("MFU victim = %d, want 1", v)
	}
}

func TestRandomVictimDeterministicUnderSeed(t *testing.T) {
	pick := func(seed int64) units.VPN {
		p := newPolicy(Random, seed)
		for v := units.VPN(0); v < 50; v++ {
			p.Insert(v)
		}
		v, ok := p.Victim()
		if !ok {
			t.Fatal("no victim")
		}
		return v
	}
	if pick(7) != pick(7) {
		t.Error("same seed picked different victims")
	}
}

func TestVictimEmptyAndLocked(t *testing.T) {
	for _, kind := range []PolicyKind{LRU, MRU, LFU, MFU, Random} {
		p := newPolicy(kind, 1)
		if _, ok := p.Victim(); ok {
			t.Errorf("%v: victim from empty set", kind)
		}
		p.Insert(9)
		p.Lock(9)
		if _, ok := p.Victim(); ok {
			t.Errorf("%v: victim despite lock", kind)
		}
		p.Unlock(9)
		if v, ok := p.Victim(); !ok || v != 9 {
			t.Errorf("%v: victim after unlock = %d (%v)", kind, v, ok)
		}
	}
}

func TestLocksNest(t *testing.T) {
	p := newPolicy(LRU, 0)
	p.Insert(1)
	p.Lock(1)
	p.Lock(1)
	p.Unlock(1)
	if _, ok := p.Victim(); ok {
		t.Error("nested lock released too early")
	}
	p.Unlock(1)
	if _, ok := p.Victim(); !ok {
		t.Error("victim unavailable after balanced unlocks")
	}
	p.Unlock(1) // extra unlock is harmless
}

func TestInsertRemoveContains(t *testing.T) {
	p := newPolicy(LRU, 0)
	p.Insert(5)
	p.Insert(5) // idempotent
	if p.Len() != 1 || !p.Contains(5) {
		t.Errorf("Len=%d Contains=%v", p.Len(), p.Contains(5))
	}
	p.Touch(6) // unknown page ignored
	p.Remove(5)
	if p.Len() != 0 || p.Contains(5) {
		t.Error("Remove failed")
	}
}

// Property: for every policy, a victim is always an unlocked tracked
// page, and evicting until empty visits each page exactly once.
func TestVictimAlwaysTrackedProperty(t *testing.T) {
	f := func(kindRaw uint8, vpnsRaw []uint16) bool {
		kind := PolicyKind(kindRaw % 5)
		p := newPolicy(kind, 3)
		inserted := map[units.VPN]bool{}
		for _, v := range vpnsRaw {
			vpn := units.VPN(v % 256)
			p.Insert(vpn)
			inserted[vpn] = true
		}
		seen := map[units.VPN]bool{}
		for p.Len() > 0 {
			v, ok := p.Victim()
			if !ok || !inserted[v] || seen[v] {
				return false
			}
			seen[v] = true
			p.Remove(v)
		}
		return len(seen) == len(inserted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// LRU eviction order must equal insertion order when nothing is touched.
func TestLRUOrderProperty(t *testing.T) {
	f := func(n uint8) bool {
		p := newPolicy(LRU, 0)
		count := int(n%32) + 1
		for i := 0; i < count; i++ {
			p.Insert(units.VPN(i))
		}
		for i := 0; i < count; i++ {
			v, ok := p.Victim()
			if !ok || v != units.VPN(i) {
				return false
			}
			p.Remove(v)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refPolicy is the map-backed policy Policy replaced, kept as the
// oracle for the differential test below. Victim selection sorts the
// unlocked pages so Go's randomised map order cannot reach a result.
type refPolicy struct {
	kind  PolicyKind
	pages map[units.VPN]pageMeta
	tick  int64
	rng   *rand.Rand
}

func newRefPolicy(kind PolicyKind, seed int64) *refPolicy {
	return &refPolicy{kind: kind, pages: map[units.VPN]pageMeta{}, rng: rand.New(rand.NewSource(seed))}
}

func (p *refPolicy) touch(vpn units.VPN) {
	if m, ok := p.pages[vpn]; ok {
		p.tick++
		m.seq = p.tick
		m.freq++
		p.pages[vpn] = m
	}
}

func (p *refPolicy) insert(vpn units.VPN) {
	if _, ok := p.pages[vpn]; !ok {
		p.tick++
		p.pages[vpn] = pageMeta{seq: p.tick, freq: 1}
	}
}

func (p *refPolicy) lock(vpn units.VPN, delta int) {
	if m, ok := p.pages[vpn]; ok && m.locks+delta >= 0 {
		m.locks += delta
		p.pages[vpn] = m
	}
}

func (p *refPolicy) victim() (units.VPN, bool) {
	var unlocked []units.VPN
	for vpn, m := range p.pages {
		if m.locks == 0 {
			unlocked = append(unlocked, vpn)
		}
	}
	if len(unlocked) == 0 {
		return 0, false
	}
	slices.Sort(unlocked)
	if p.kind == Random {
		return unlocked[p.rng.Intn(len(unlocked))], true
	}
	// Rank by the kind's primary key, then older stamp, then lower VPN.
	rank := func(vpn units.VPN) [2]int64 {
		m := p.pages[vpn]
		switch p.kind {
		case LRU:
			return [2]int64{m.seq, 0}
		case MRU:
			return [2]int64{-m.seq, 0}
		case LFU:
			return [2]int64{m.freq, m.seq}
		default: // MFU
			return [2]int64{-m.freq, m.seq}
		}
	}
	best := unlocked[0]
	for _, vpn := range unlocked[1:] {
		if r, b := rank(vpn), rank(best); r[0] < b[0] || (r[0] == b[0] && r[1] < b[1]) {
			best = vpn
		}
	}
	return best, true
}

// For all five kinds, a seeded random stream of Insert, Touch, Lock,
// Unlock, Remove and Victim must agree with the map-backed reference
// victim for victim — on a fresh policy and on one recycled through a
// LibScratch after a much larger run, whose page index comes back
// holding that run's leaves for reuse.
func TestPolicyAgreesWithMapReference(t *testing.T) {
	for _, kind := range []PolicyKind{LRU, MRU, LFU, MFU, Random} {
		scr := &LibScratch{}
		warm := scr.Policy(kind, 1)
		for v := units.VPN(0); v < 5000; v++ {
			warm.Insert(v)
		}
		for name, p := range map[string]*Policy{"fresh": newPolicy(kind, 77), "recycled": scr.Policy(kind, 77)} {
			ref := newRefPolicy(kind, 77)
			rng := rand.New(rand.NewSource(int64(kind) + 1))
			for op := 0; op < 6000; op++ {
				vpn := units.VPN(rng.Intn(96))
				switch rng.Intn(8) {
				case 0, 1:
					p.Insert(vpn)
					ref.insert(vpn)
				case 2, 3:
					p.Touch(vpn)
					ref.touch(vpn)
				case 4:
					p.Lock(vpn)
					ref.lock(vpn, +1)
				case 5:
					p.Unlock(vpn)
					ref.lock(vpn, -1)
				case 6:
					p.Remove(vpn)
					delete(ref.pages, vpn)
				case 7:
					got, gok := p.Victim()
					want, wok := ref.victim()
					if got != want || gok != wok {
						t.Fatalf("%v/%s op %d: Victim = (%d,%v), reference (%d,%v)", kind, name, op, got, gok, want, wok)
					}
					if gok && rng.Intn(2) == 0 { // evict it, as the library does
						p.Remove(got)
						delete(ref.pages, want)
					}
				}
				if p.Len() != len(ref.pages) {
					t.Fatalf("%v/%s op %d: Len = %d, reference %d", kind, name, op, p.Len(), len(ref.pages))
				}
				if _, tracked := ref.pages[vpn]; p.Contains(vpn) != tracked {
					t.Fatalf("%v/%s op %d: Contains(%d) = %v, reference %v", kind, name, op, vpn, p.Contains(vpn), tracked)
				}
			}
		}
	}
}
