package phys

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"utlb/internal/units"
)

func TestNewMemorySizing(t *testing.T) {
	m := NewMemory(10*units.PageSize + 123)
	if m.NumFrames() != 10 {
		t.Errorf("NumFrames = %d, want 10", m.NumFrames())
	}
	if m.FreeFrames() != 10 {
		t.Errorf("FreeFrames = %d, want 10", m.FreeFrames())
	}
}

func TestNewMemoryTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for sub-page memory")
		}
	}()
	NewMemory(100)
}

func TestAllocFree(t *testing.T) {
	m := NewMemory(3 * units.PageSize)
	seen := map[units.PFN]bool{}
	for i := 0; i < 3; i++ {
		f, err := m.Alloc()
		if err != nil {
			t.Fatalf("Alloc #%d: %v", i, err)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
		if !m.Allocated(f) {
			t.Errorf("Allocated(%d) = false after Alloc", f)
		}
	}
	if _, err := m.Alloc(); err != ErrOutOfMemory {
		t.Errorf("exhausted Alloc err = %v, want ErrOutOfMemory", err)
	}
	for f := range seen {
		m.Free(f)
	}
	if m.FreeFrames() != 3 {
		t.Errorf("FreeFrames after frees = %d", m.FreeFrames())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := NewMemory(units.PageSize)
	f, _ := m.Alloc()
	m.Free(f)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double free")
		}
	}()
	m.Free(f)
}

func TestFreeDropsContents(t *testing.T) {
	m := NewMemory(units.PageSize)
	f, _ := m.Alloc()
	m.Write(f.Addr(), []byte{1, 2, 3})
	m.Free(f)
	f2, _ := m.Alloc()
	if f2 != f {
		t.Fatalf("expected frame reuse, got %d vs %d", f2, f)
	}
	if got := m.Read(f2.Addr(), 3); !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Errorf("reused frame not zeroed: %v", got)
	}
}

func TestReadWriteCrossFrame(t *testing.T) {
	m := NewMemory(4 * units.PageSize)
	// Allocate all frames so any address is writable.
	for i := 0; i < 4; i++ {
		if _, err := m.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	data := make([]byte, 2*units.PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := units.PAddr(units.PageSize - 100)
	m.Write(start, data)
	got := m.Read(start, len(data))
	if !bytes.Equal(got, data) {
		t.Error("cross-frame round trip mismatch")
	}
}

func TestWriteUnallocatedPanics(t *testing.T) {
	m := NewMemory(2 * units.PageSize)
	defer func() {
		if recover() == nil {
			t.Error("expected panic writing unallocated frame")
		}
	}()
	m.Write(0, []byte{1})
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewMemory(units.PageSize)
	m.Alloc()
	defer func() {
		if recover() == nil {
			t.Error("expected panic past end of memory")
		}
	}()
	m.Read(units.PageSize-1, 2)
}

func TestWordRoundTrip(t *testing.T) {
	m := NewMemory(2 * units.PageSize)
	m.Alloc()
	m.Alloc()
	const w = uint64(0xdeadbeefcafef00d)
	m.WriteWord(units.PageSize-4, w) // crosses a frame boundary
	if got := m.ReadWord(units.PageSize - 4); got != w {
		t.Errorf("word round trip = %#x, want %#x", got, w)
	}
}

// WriteWord writes in place within a page and through Write across a
// frame boundary; at every in-page offset and at each straddling one
// it must leave memory exactly as Write of the little-endian bytes
// does, neighbours included, and ReadWord must read the word back.
func TestWriteWordMatchesWrite(t *testing.T) {
	viaWord, viaWrite := NewMemory(2*units.PageSize), NewMemory(2*units.PageSize)
	for _, m := range []*Memory{viaWord, viaWrite} {
		m.Alloc()
		m.Alloc()
		m.Write(0, bytes.Repeat([]byte{0xa5}, 2*units.PageSize))
	}
	for off := units.PAddr(0); off <= 2*units.PageSize-8; off++ {
		w := 0x0102030405060708 * uint64(off+1)
		viaWord.WriteWord(off, w)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], w)
		viaWrite.Write(off, buf[:])
		if got := viaWord.ReadWord(off); got != w {
			t.Fatalf("offset %#x: ReadWord after WriteWord = %#x, want %#x", off, got, w)
		}
		if a, b := viaWord.Read(0, 2*units.PageSize), viaWrite.Read(0, 2*units.PageSize); !bytes.Equal(a, b) {
			t.Fatalf("offset %#x: WriteWord and Write leave different memory", off)
		}
	}
	viaWord.Free(1)
	for _, pa := range []units.PAddr{units.PageSize + 8, units.PageSize - 4, 2*units.PageSize - 4} {
		if !panics(func() { viaWord.WriteWord(pa, 1) }) {
			t.Errorf("WriteWord(%#x) into a freed frame or past the end did not panic", pa)
		}
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	m := NewMemory(4 * units.PageSize)
	for i := 0; i < 4; i++ {
		m.Alloc()
	}
	f := func(w uint64, offRaw uint16) bool {
		off := units.PAddr(offRaw) % (4*units.PageSize - 8)
		m.WriteWord(off, w)
		return m.ReadWord(off) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocHandsOutLowFramesFirst(t *testing.T) {
	m := NewMemory(3 * units.PageSize)
	f0, _ := m.Alloc()
	f1, _ := m.Alloc()
	if f0 != 0 || f1 != 1 {
		t.Errorf("first allocations = %d,%d, want 0,1", f0, f1)
	}
}

// refMemory is the allocator Memory replaced, kept as the oracle: a
// LIFO free list pre-filled n-1..0 (so construction is O(n)) and
// map-backed allocation state and contents.
type refMemory struct {
	n         int
	free      []units.PFN
	allocated map[units.PFN]bool
	data      map[units.PFN][]byte
}

func newRefMemory(n int) *refMemory {
	r := &refMemory{n: n, allocated: map[units.PFN]bool{}, data: map[units.PFN][]byte{}}
	for f := n; f > 0; f-- {
		r.free = append(r.free, units.PFN(f-1))
	}
	return r
}

func (r *refMemory) alloc() (units.PFN, error) {
	if len(r.free) == 0 {
		return units.NoPFN, ErrOutOfMemory
	}
	f := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.allocated[f] = true
	return f, nil
}

func (r *refMemory) release(f units.PFN) {
	delete(r.allocated, f)
	delete(r.data, f)
	r.free = append(r.free, f)
}

func (r *refMemory) word(f units.PFN, off int) uint64 {
	b, ok := r.data[f]
	if !ok {
		return 0
	}
	return binary.LittleEndian.Uint64(b[off:])
}

func (r *refMemory) setWord(f units.PFN, off int, w uint64) {
	if r.data[f] == nil {
		r.data[f] = make([]byte, units.PageSize)
	}
	binary.LittleEndian.PutUint64(r.data[f][off:], w)
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// The O(1) constructor must not change which frame any Alloc returns:
// the lowest never-used frame first, the most recently freed frame
// before any never-used one. A seeded random stream of allocations,
// frees, word writes and reads is replayed against the LIFO-free-list
// reference; every returned frame, the FreeFrames/NumFrames accounting
// (hostos.Reclaim's pressure ratio reads it), every word read back —
// zeros from never-written frames, zeros again after Free dropped the
// contents — and the three misuse panics must agree, also across a
// Reset to a different size.
func TestAllocationOrderMatchesFreeListReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	m := NewMemory(int64(24 * units.PageSize))
	for round, frames := range []int{24, 9, 40} {
		if round > 0 {
			m.Reset(int64(frames * units.PageSize))
		}
		ref := newRefMemory(frames)
		for op := 0; op < 4000; op++ {
			f := units.PFN(rng.Intn(frames))
			off := rng.Intn(units.PageSize/8) * 8
			pa := f.Addr() + units.PAddr(off)
			switch rng.Intn(5) {
			case 0, 1:
				got, gerr := m.Alloc()
				want, werr := ref.alloc()
				if got != want || gerr != werr {
					t.Fatalf("round %d op %d: Alloc = (%d,%v), reference (%d,%v)", round, op, got, gerr, want, werr)
				}
			case 2:
				if !ref.allocated[f] {
					if !panics(func() { m.Free(f) }) {
						t.Fatalf("round %d op %d: Free of unallocated frame %d did not panic", round, op, f)
					}
					continue
				}
				m.Free(f)
				ref.release(f)
			case 3:
				w := rng.Uint64()
				if !ref.allocated[f] {
					if !panics(func() { m.WriteWord(pa, w) }) {
						t.Fatalf("round %d op %d: write to unallocated frame %d did not panic", round, op, f)
					}
					continue
				}
				m.WriteWord(pa, w)
				ref.setWord(f, off, w)
			case 4:
				if !ref.allocated[f] {
					if !panics(func() { m.ReadWord(pa) }) {
						t.Fatalf("round %d op %d: read of unallocated frame %d did not panic", round, op, f)
					}
					continue
				}
				if got, want := m.ReadWord(pa), ref.word(f, off); got != want {
					t.Fatalf("round %d op %d: ReadWord(frame %d+%d) = %#x, reference %#x", round, op, f, off, got, want)
				}
				if got := m.Read(pa, 8); binary.LittleEndian.Uint64(got) != ref.word(f, off) {
					t.Fatalf("round %d op %d: Read(frame %d+%d) = %x, reference %#x", round, op, f, off, got, ref.word(f, off))
				}
			}
			if m.FreeFrames() != len(ref.free) || int(m.NumFrames()) != ref.n {
				t.Fatalf("round %d op %d: FreeFrames/NumFrames = %d/%d, reference %d/%d",
					round, op, m.FreeFrames(), m.NumFrames(), len(ref.free), ref.n)
			}
			if m.Allocated(f) != ref.allocated[f] {
				t.Fatalf("round %d op %d: Allocated(%d) = %v, reference %v", round, op, f, m.Allocated(f), ref.allocated[f])
			}
		}
	}
}

// Construction no longer touches every frame: a terabyte of simulated
// memory costs the same few words as a megabyte.
func TestNewMemoryIsConstantSize(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() { NewMemory(1 << 40) })
	if allocs > 1 {
		t.Errorf("NewMemory(1 TB) makes %.0f allocations, want 1 (the Memory itself)", allocs)
	}
}
