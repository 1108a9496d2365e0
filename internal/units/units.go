// Package units defines the shared scalar types of the simulation:
// virtual time, addresses, page geometry, and byte sizes.
//
// All simulated time is an integer count of nanoseconds. The paper reports
// microseconds with a 0.5 µs clock on the LANai and a cycle counter on the
// host; nanosecond integers let us compose costs without float drift while
// still printing microseconds to match the paper's tables.
package units

import "fmt"

// Time is a point in (or duration of) simulated time, in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t as floating-point microseconds, the unit used by every
// table in the paper.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time in microseconds with two decimals ("1.80us").
func (t Time) String() string { return fmt.Sprintf("%.2fus", t.Micros()) }

// FromMicros converts floating-point microseconds to a Time.
func FromMicros(us float64) Time { return Time(us * float64(Microsecond)) }

// Page geometry. The paper's cluster uses 4 KB pages everywhere; the VMMC
// firmware breaks transfers at 4 KB boundaries and the UTLB translates one
// page at a time.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4096
	PageMask  = PageSize - 1
	// VASpacePages bounds a process' virtual address space to 2^20
	// pages — a 32-bit address space with 4 KB pages, as on the
	// paper's machines.
	VASpacePages = 1 << 20
)

// VAddr is a virtual address in a process address space.
type VAddr uint64

// PAddr is a physical (host DRAM) address.
type PAddr uint64

// VPN is a virtual page number.
type VPN uint64

// PFN is a physical frame number.
type PFN uint64

// NoPFN marks an unmapped or invalid translation.
const NoPFN = PFN(^uint64(0))

// PageOf returns the virtual page containing va.
func (va VAddr) PageOf() VPN { return VPN(va >> PageShift) }

// Offset returns the offset of va within its page.
func (va VAddr) Offset() uint64 { return uint64(va) & PageMask }

// Addr returns the first virtual address of page v.
func (v VPN) Addr() VAddr { return VAddr(v) << PageShift }

// Addr returns the first physical address of frame p.
func (p PFN) Addr() PAddr { return PAddr(p) << PageShift }

// PageOf returns the physical frame containing pa.
func (pa PAddr) PageOf() PFN { return PFN(pa >> PageShift) }

// PagesSpanned reports how many pages the byte range [va, va+n) touches.
// A zero-length range touches no pages.
func PagesSpanned(va VAddr, n int) int {
	if n <= 0 {
		return 0
	}
	first := va.PageOf()
	last := (va + VAddr(n) - 1).PageOf()
	return int(last-first) + 1
}

// Byte sizes.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// ProcID identifies a process on a host. The Shared UTLB-Cache tags each
// entry with a process tag, so the identifier is shared across layers.
type ProcID uint32

// NodeID identifies a host (and its network interface) in the cluster.
type NodeID uint32
