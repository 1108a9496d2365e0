package vm

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"utlb/internal/phys"
	"utlb/internal/units"
)

func newSpace(t *testing.T, frames int, limit int) *Space {
	t.Helper()
	return NewSpace(1, phys.NewMemory(int64(frames)*units.PageSize), limit)
}

func TestTouchAndTranslate(t *testing.T) {
	s := newSpace(t, 8, 0)
	if _, err := s.Translate(5); !errors.Is(err, ErrNotMapped) {
		t.Errorf("Translate unmapped = %v, want ErrNotMapped", err)
	}
	pfn, err := s.Touch(5)
	if err != nil {
		t.Fatal(err)
	}
	pfn2, err := s.Touch(5)
	if err != nil || pfn2 != pfn {
		t.Errorf("repeated Touch = %d,%v, want %d,nil", pfn2, err, pfn)
	}
	got, err := s.Translate(5)
	if err != nil || got != pfn {
		t.Errorf("Translate = %d,%v", got, err)
	}
	if s.MappedPages() != 1 {
		t.Errorf("MappedPages = %d", s.MappedPages())
	}
}

func TestPinUnpinCounts(t *testing.T) {
	s := newSpace(t, 8, 0)
	if s.Pinned(3) {
		t.Error("unmapped page reported pinned")
	}
	if _, err := s.Pin(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pin(3); err != nil {
		t.Fatal(err)
	}
	if s.PinCount(3) != 2 {
		t.Errorf("PinCount = %d, want 2", s.PinCount(3))
	}
	if s.PinnedPages() != 1 {
		t.Errorf("PinnedPages = %d, want 1 (distinct)", s.PinnedPages())
	}
	if err := s.Unpin(3); err != nil {
		t.Fatal(err)
	}
	if !s.Pinned(3) {
		t.Error("page unpinned too early")
	}
	if err := s.Unpin(3); err != nil {
		t.Fatal(err)
	}
	if s.Pinned(3) || s.PinnedPages() != 0 {
		t.Error("page still pinned after balanced unpins")
	}
	if err := s.Unpin(3); !errors.Is(err, ErrNotPinned) {
		t.Errorf("extra Unpin = %v, want ErrNotPinned", err)
	}
}

func TestPinLimit(t *testing.T) {
	s := newSpace(t, 8, 2)
	if _, err := s.Pin(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pin(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pin(2); !errors.Is(err, ErrPinLimit) {
		t.Errorf("over-limit Pin = %v, want ErrPinLimit", err)
	}
	// Re-pinning an already-pinned page does not charge the quota.
	if _, err := s.Pin(0); err != nil {
		t.Errorf("re-pin charged quota: %v", err)
	}
	// Unpinning frees quota for a new page.
	s.Unpin(1)
	if _, err := s.Pin(2); err != nil {
		t.Errorf("Pin after quota freed = %v", err)
	}
}

func TestEvict(t *testing.T) {
	mem := phys.NewMemory(2 * units.PageSize)
	s := NewSpace(1, mem, 0)
	s.Touch(0)
	s.Touch(1)
	if _, err := s.Touch(2); !errors.Is(err, phys.ErrOutOfMemory) {
		t.Fatalf("Touch with full memory = %v", err)
	}
	if err := s.Evict(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Touch(2); err != nil {
		t.Errorf("Touch after evict = %v", err)
	}
	if err := s.Evict(99); !errors.Is(err, ErrNotMapped) {
		t.Errorf("Evict unmapped = %v", err)
	}
}

func TestEvictPinnedForbidden(t *testing.T) {
	s := newSpace(t, 4, 0)
	s.Pin(7)
	if err := s.Evict(7); err == nil {
		t.Fatal("evicted a pinned page")
	}
	s.Unpin(7)
	if err := s.Evict(7); err != nil {
		t.Fatalf("Evict after unpin = %v", err)
	}
}

func TestReadWriteAt(t *testing.T) {
	s := newSpace(t, 8, 0)
	data := make([]byte, 3*units.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	va := units.VAddr(units.PageSize - 17)
	if err := s.WriteAt(va, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAt(va, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("ReadAt/WriteAt round trip mismatch")
	}
}

func TestReadWriteAtProperty(t *testing.T) {
	s := newSpace(t, 64, 0)
	f := func(vaRaw uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		va := units.VAddr(vaRaw)
		if err := s.WriteAt(va, payload); err != nil {
			return false
		}
		got, err := s.ReadAt(va, len(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPinnedNeverExceedsLimitProperty(t *testing.T) {
	// Invariant: under any interleaving of pins and unpins, the distinct
	// pinned-page count never exceeds the limit, and Pin fails exactly
	// when the quota is full.
	const limit = 4
	s := newSpace(t, 64, limit)
	f := func(ops []uint8) bool {
		for _, op := range ops {
			vpn := units.VPN(op % 16)
			if op%2 == 0 {
				_, err := s.Pin(vpn)
				if errors.Is(err, ErrPinLimit) && s.PinnedPages() < limit {
					return false // refused below quota
				}
			} else {
				s.Unpin(vpn) // may legitimately fail
			}
			if s.PinnedPages() > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRelease(t *testing.T) {
	mem := phys.NewMemory(4 * units.PageSize)
	s := NewSpace(1, mem, 0)
	s.Pin(0)
	s.Touch(1)
	s.Release()
	if s.MappedPages() != 0 || s.PinnedPages() != 0 {
		t.Errorf("after Release: mapped=%d pinned=%d", s.MappedPages(), s.PinnedPages())
	}
	if mem.FreeFrames() != 4 {
		t.Errorf("frames leaked: free=%d", mem.FreeFrames())
	}
}

// The page table is a page-indexed tlbcache.PageMap, no longer a Go
// map. A seeded random stream of Touch, Pin, Unpin and Evict over a
// small page range — nested pins, a tight pin limit, evictions that
// clear live bits inside one leaf — must agree with a map-backed model
// on every error, pin count and frame: whatever the model says is
// mapped holds exactly one frame, and Evict, Release and
// Reset-with-memory hand every frame back.
func TestSpaceAgreesWithMapReference(t *testing.T) {
	const frames, limit, pages = 48, 5, 40
	mem := phys.NewMemory(frames * units.PageSize)
	s := NewSpace(3, mem, limit)
	type refPage struct {
		pfn  units.PFN
		pins int
	}
	ref := map[units.VPN]*refPage{}
	refPinned := func() (n int) {
		for _, p := range ref {
			if p.pins > 0 {
				n++
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		vpn := units.VPN(rng.Intn(pages))
		p := ref[vpn]
		switch rng.Intn(7) {
		case 0:
			pfn, err := s.Touch(vpn)
			if err != nil {
				t.Fatalf("op %d: Touch(%d): %v", op, vpn, err)
			}
			if p == nil {
				ref[vpn] = &refPage{pfn: pfn}
			} else if pfn != p.pfn {
				t.Fatalf("op %d: Touch(%d) moved the page: frame %d, was %d", op, vpn, pfn, p.pfn)
			}
		case 1, 2, 3:
			pfn, err := s.Pin(vpn)
			if (p == nil || p.pins == 0) && refPinned() >= limit {
				if !errors.Is(err, ErrPinLimit) {
					t.Fatalf("op %d: Pin(%d) past the limit = %v, want ErrPinLimit", op, vpn, err)
				}
				if _, terr := s.Translate(vpn); (terr == nil) != (p != nil) {
					t.Fatalf("op %d: refused Pin(%d) changed the mapping", op, vpn)
				}
				break
			}
			if err != nil {
				t.Fatalf("op %d: Pin(%d): %v", op, vpn, err)
			}
			if p == nil {
				p = &refPage{pfn: pfn}
				ref[vpn] = p
			}
			p.pins++
		case 4, 5:
			err := s.Unpin(vpn)
			if p == nil || p.pins == 0 {
				if !errors.Is(err, ErrNotPinned) {
					t.Fatalf("op %d: Unpin(%d) of unpinned page = %v, want ErrNotPinned", op, vpn, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("op %d: Unpin(%d): %v", op, vpn, err)
			}
			p.pins--
		case 6:
			err := s.Evict(vpn)
			switch {
			case p == nil:
				if !errors.Is(err, ErrNotMapped) {
					t.Fatalf("op %d: Evict(%d) of unmapped page = %v, want ErrNotMapped", op, vpn, err)
				}
			case p.pins > 0:
				if err == nil {
					t.Fatalf("op %d: Evict(%d) took a page with %d pins", op, vpn, p.pins)
				}
			default:
				if err != nil {
					t.Fatalf("op %d: Evict(%d): %v", op, vpn, err)
				}
				if mem.Allocated(p.pfn) {
					t.Fatalf("op %d: Evict(%d) kept frame %d", op, vpn, p.pfn)
				}
				delete(ref, vpn)
			}
		}
		if op%5000 == 4999 { // process exit: every frame comes back, pinned or not
			s.Release()
			clear(ref)
		}
		if p := ref[vpn]; p != nil {
			if pfn, err := s.Translate(vpn); err != nil || pfn != p.pfn || s.PinCount(vpn) != p.pins {
				t.Fatalf("op %d: page %d = frame %d (%v), %d pins; model frame %d, %d pins",
					op, vpn, pfn, err, s.PinCount(vpn), p.pfn, p.pins)
			}
		} else if s.PinCount(vpn) != 0 || s.Pinned(vpn) {
			t.Fatalf("op %d: unmapped page %d reports pins", op, vpn)
		}
		if s.MappedPages() != len(ref) || s.PinnedPages() != refPinned() || mem.FreeFrames() != frames-len(ref) {
			t.Fatalf("op %d: mapped/pinned/free = %d/%d/%d, model %d/%d/%d", op,
				s.MappedPages(), s.PinnedPages(), mem.FreeFrames(), len(ref), refPinned(), frames-len(ref))
		}
	}
	var want []units.VPN
	for vpn := range ref {
		want = append(want, vpn)
	}
	slices.Sort(want)
	if got := s.MappedVPNs(); !slices.Equal(got, want) {
		t.Errorf("MappedVPNs = %v, model %v", got, want)
	}
	// Recycling for another run: the memory is reset alongside, so the
	// space comes back empty over all-free frames and a new identity.
	mem.Reset(frames * units.PageSize)
	s.Reset(9, mem, 0)
	if s.PID() != 9 || s.PinLimit() != 0 || s.MappedPages() != 0 || s.PinnedPages() != 0 {
		t.Errorf("Reset left pid %d, limit %d, %d mapped, %d pinned", s.PID(), s.PinLimit(), s.MappedPages(), s.PinnedPages())
	}
	if pfn, err := s.Pin(0); err != nil || pfn != 0 {
		t.Errorf("first Pin after Reset = frame %d (%v), want frame 0", pfn, err)
	}
}
