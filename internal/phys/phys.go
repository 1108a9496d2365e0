// Package phys simulates host physical memory: a frame allocator plus
// byte-addressable storage. The network interface DMAs against this
// memory, and the VMMC layer moves real bytes through it, so data
// integrity can be checked end to end.
//
// Frames are allocated lazily: backing storage for a frame is only
// materialised when it is first written, keeping large simulated
// memories (hundreds of MB, as on the paper's SMP nodes) cheap.
package phys

import (
	"encoding/binary"
	"fmt"

	"utlb/internal/units"
)

// Memory is a bank of physical memory frames. PFNs are dense 0..n-1,
// so every per-frame structure is addressed by index and sized by the
// high-water frame, never by n: construction is O(1) whatever the
// memory size.
//
// Allocation order is part of the contract (tests pin it): the most
// recently freed frame is handed out first, then the lowest frame
// never used — exactly what a LIFO free list pre-filled n-1..0 gives.
type Memory struct {
	numFrames units.PFN
	next      units.PFN   // bump pointer: the lowest never-used frame
	recycled  []units.PFN // freed frames, LIFO
	allocated []uint64    // bitset over [0, next)
	frames    [][]byte    // backing by frame, nil until first written
	spare     [][]byte    // backing dropped by Free/Reset, zeroed on reuse
}

// NewMemory returns a memory of size bytes, rounded down to whole frames.
// It panics if size is smaller than one page: a machine without memory is
// a configuration error, not a runtime condition.
func NewMemory(size int64) *Memory {
	m := &Memory{}
	m.Reset(size)
	return m
}

// Reset returns m to the freshly constructed state at a new size,
// keeping its index arrays and frame backing for the next run
// (sim.RunScratch holds one Memory per worker).
func (m *Memory) Reset(size int64) {
	n := units.PFN(size >> units.PageShift)
	if n == 0 {
		panic(fmt.Sprintf("phys: memory size %d smaller than one page", size))
	}
	for f, b := range m.frames {
		if b != nil {
			m.spare = append(m.spare, b)
			m.frames[f] = nil
		}
	}
	m.numFrames, m.next = n, 0
	m.recycled = m.recycled[:0]
	m.allocated = m.allocated[:0]
	m.frames = m.frames[:0]
}

// NumFrames reports the total number of frames.
func (m *Memory) NumFrames() units.PFN { return m.numFrames }

// FreeFrames reports how many frames are currently unallocated.
func (m *Memory) FreeFrames() int { return int(m.numFrames-m.next) + len(m.recycled) }

// Alloc allocates one frame. It fails when physical memory is exhausted.
func (m *Memory) Alloc() (units.PFN, error) {
	var f units.PFN
	switch {
	case len(m.recycled) > 0:
		f = m.recycled[len(m.recycled)-1]
		m.recycled = m.recycled[:len(m.recycled)-1]
	case m.next < m.numFrames:
		f = m.next
		m.next++
		if int(f>>6) == len(m.allocated) {
			m.allocated = append(m.allocated, 0)
		}
	default:
		return units.NoPFN, ErrOutOfMemory
	}
	m.allocated[f>>6] |= 1 << (f & 63)
	return f, nil
}

// Free returns a frame to the allocator and drops its contents.
// Freeing an unallocated frame is a bug in the caller and panics.
func (m *Memory) Free(f units.PFN) {
	if !m.Allocated(f) {
		panic(fmt.Sprintf("phys: double free of frame %d", f))
	}
	m.allocated[f>>6] &^= 1 << (f & 63)
	if b := m.written(f); b != nil {
		m.spare = append(m.spare, b)
		m.frames[f] = nil
	}
	m.recycled = append(m.recycled, f)
}

// Allocated reports whether frame f is currently allocated.
func (m *Memory) Allocated(f units.PFN) bool {
	return f < m.next && m.allocated[f>>6]&(1<<(f&63)) != 0
}

// ErrOutOfMemory is returned by Alloc when no frames remain.
var ErrOutOfMemory = fmt.Errorf("phys: out of physical memory")

// readable returns f's backing as written, panicking if f is not
// allocated: only the OS hands out frames, so such a read is a
// simulator bug.
func (m *Memory) readable(f units.PFN) []byte {
	if !m.Allocated(f) {
		panic(fmt.Sprintf("phys: read from unallocated frame %d", f))
	}
	return m.written(f)
}

// written returns f's backing, or nil when f was never written (such a
// frame reads as zeros; materialising on read would allocate for
// nothing).
func (m *Memory) written(f units.PFN) []byte {
	if int(f) < len(m.frames) {
		return m.frames[f]
	}
	return nil
}

// backing returns f's backing, materialising it zeroed on first write.
func (m *Memory) backing(f units.PFN) []byte {
	if b := m.written(f); b != nil {
		return b
	}
	for int(f) >= len(m.frames) {
		m.frames = append(m.frames, nil)
	}
	var b []byte
	if n := len(m.spare); n > 0 {
		b, m.spare = m.spare[n-1], m.spare[:n-1]
		clear(b)
	} else {
		b = make([]byte, units.PageSize)
	}
	m.frames[f] = b
	return b
}

func (m *Memory) checkRange(pa units.PAddr, n int) {
	if n < 0 {
		panic(fmt.Sprintf("phys: negative length %d", n))
	}
	end := pa + units.PAddr(n)
	limit := units.PAddr(m.numFrames) << units.PageShift
	if pa > limit || end > limit {
		panic(fmt.Sprintf("phys: access [%#x,%#x) beyond memory end %#x", pa, end, limit))
	}
}

// Write copies data into physical memory starting at pa. The range may
// cross frame boundaries. Writing to an unallocated frame panics: only
// the OS hands out frames, so such a write is a simulator bug.
func (m *Memory) Write(pa units.PAddr, data []byte) {
	m.checkRange(pa, len(data))
	for len(data) > 0 {
		f := pa.PageOf()
		if !m.Allocated(f) {
			panic(fmt.Sprintf("phys: write to unallocated frame %d", f))
		}
		off := int(uint64(pa) & units.PageMask)
		n := units.PageSize - off
		if n > len(data) {
			n = len(data)
		}
		copy(m.backing(f)[off:off+n], data[:n])
		pa += units.PAddr(n)
		data = data[n:]
	}
}

// Read copies n bytes starting at pa into a fresh slice.
func (m *Memory) Read(pa units.PAddr, n int) []byte {
	m.checkRange(pa, n)
	out := make([]byte, n)
	dst := out
	for len(dst) > 0 {
		b := m.readable(pa.PageOf())
		off := int(uint64(pa) & units.PageMask)
		c := units.PageSize - off
		if c > len(dst) {
			c = len(dst)
		}
		// dst is already zeroed, so only copy materialised frames.
		if b != nil {
			copy(dst[:c], b[off:off+c])
		}
		pa += units.PAddr(c)
		dst = dst[c:]
	}
	return out
}

// WriteWord stores a 64-bit little-endian word at pa. Word accesses are
// how the NIC reads translation-table entries out of host memory, and
// how the driver installs them: an in-page word goes straight into the
// frame's backing, as ReadWord reads it.
func (m *Memory) WriteWord(pa units.PAddr, w uint64) {
	m.checkRange(pa, 8)
	off := int(uint64(pa) & units.PageMask)
	if off > units.PageSize-8 {
		// Word straddles a frame boundary: the general path.
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], w)
		m.Write(pa, buf[:])
		return
	}
	f := pa.PageOf()
	if !m.Allocated(f) {
		panic(fmt.Sprintf("phys: write to unallocated frame %d", f))
	}
	binary.LittleEndian.PutUint64(m.backing(f)[off:], w)
}

// ReadWord loads a 64-bit little-endian word from pa. This is the
// NIC's entry-fetch primitive, so it reads straight out of the frame
// backing without going through Read's fresh-slice contract.
func (m *Memory) ReadWord(pa units.PAddr) uint64 {
	m.checkRange(pa, 8)
	if off := int(uint64(pa) & units.PageMask); off <= units.PageSize-8 {
		if b := m.readable(pa.PageOf()); b != nil {
			return binary.LittleEndian.Uint64(b[off:])
		}
		return 0 // never-written frame reads as zeros
	}
	// Word straddles a frame boundary: assemble byte by byte.
	var w uint64
	for i := 0; i < 8; i++ {
		p := pa + units.PAddr(i)
		if b := m.readable(p.PageOf()); b != nil {
			w |= uint64(b[uint64(p)&units.PageMask]) << (8 * i)
		}
	}
	return w
}

// ReadWords fills dst with the words ReadWord reads from pa on, finding
// the frame once when the run stays in one, as an entry fetch (clamped
// at its table's frame) does.
func (m *Memory) ReadWords(pa units.PAddr, dst []uint64) {
	off := int(uint64(pa) & units.PageMask)
	if len(dst) == 0 || off+8*len(dst) > units.PageSize {
		for i := range dst {
			dst[i] = m.ReadWord(pa + units.PAddr(8*i))
		}
		return
	}
	m.checkRange(pa, 8*len(dst))
	b := m.readable(pa.PageOf())
	if b == nil {
		clear(dst) // never-written frame reads as zeros
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[off+8*i:])
	}
}
