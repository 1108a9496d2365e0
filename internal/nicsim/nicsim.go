// Package nicsim simulates the network interface card: a LANai-style
// embedded processor with on-board SRAM, a DMA engine on the host I/O
// bus, and a doorbell through which user processes post requests.
// Interrupts are modelled where they are paid, on the host
// (hostos.Host.EnterInterrupt).
//
// The paper's NIC is a Myrinet PCI interface with a 33 MHz LANai 4.2
// and 1 MB of SRAM; the firmware (Myrinet Control Program) polls
// per-process command buffers and executes transfers. Timing here is a
// cost model: SRAM references and cache probes charge the NIC clock so
// that the measured hit cost lands at the paper's 0.8 µs.
package nicsim

import (
	"fmt"

	"utlb/internal/bus"
	"utlb/internal/units"
)

// Costs is the NIC-side cost model.
type Costs struct {
	// LookupBase is the fixed firmware cost of entering the translation
	// lookup routine (argument decode, index computation).
	LookupBase units.Time
	// CacheProbe is the cost of checking one cache entry (tag fetch and
	// compare in SRAM). The LANai checks one entry at a time, so a
	// k-way set-associative lookup pays up to k probes — the reason the
	// paper's set-associative caches lose on real lookup cost (§6.3).
	CacheProbe units.Time
	// DirectoryProbe is the SRAM reference that reads the top-level
	// UTLB page-directory entry on a cache miss (§3.3).
	DirectoryProbe units.Time
	// CacheInstall is the cost of installing one fetched entry into
	// the cache after the miss DMA completes.
	CacheInstall units.Time
	// BatchEntry is the per-entry cost of continuing a batched
	// translation dispatch: after the first vpn of a batch pays
	// LookupBase (argument decode, routine entry), each further vpn
	// pays only the loop increment — operand fetch from the request
	// queue and index recompute, with no re-dispatch. Probes, directory
	// references and fills are still charged per entry.
	BatchEntry units.Time
	// DoorbellPoll is the cost of polling one command-post buffer.
	DoorbellPoll units.Time
}

// DefaultCosts calibrates the NIC against Table 2: a direct-mapped hit
// costs 0.8 µs (base + one probe), and the total miss cost exceeds the
// DMA cost by a directory probe plus per-entry install work.
func DefaultCosts() Costs {
	return Costs{
		LookupBase:     units.FromMicros(0.70),
		CacheProbe:     units.FromMicros(0.10),
		DirectoryProbe: units.FromMicros(0.30),
		CacheInstall:   units.FromMicros(0.012),
		BatchEntry:     units.FromMicros(0.15),
		DoorbellPoll:   units.FromMicros(0.20),
	}
}

// NIC is one node's network interface.
type NIC struct {
	id    units.NodeID
	clock *units.Clock
	costs Costs
	bus   *bus.Bus

	sramSize int
	sramUsed int

	// Counters for experiments.
	dmaFetches int64
}

// New returns a NIC with the given SRAM size attached to b. The NIC has
// its own clock: the LANai runs asynchronously to the host CPU.
func New(id units.NodeID, sramBytes int, clock *units.Clock, b *bus.Bus, costs Costs) *NIC {
	return &NIC{
		id:       id,
		clock:    clock,
		costs:    costs,
		bus:      b,
		sramSize: sramBytes,
	}
}

// ID reports the node this NIC belongs to.
func (n *NIC) ID() units.NodeID { return n.id }

// Clock returns the NIC processor clock.
func (n *NIC) Clock() *units.Clock { return n.clock }

// Costs returns the NIC cost model.
func (n *NIC) Costs() Costs { return n.costs }

// Bus returns the NIC's host I/O bus.
func (n *NIC) Bus() *bus.Bus { return n.bus }

// SRAMSize reports total on-board SRAM in bytes.
func (n *NIC) SRAMSize() int { return n.sramSize }

// SRAMFree reports unreserved SRAM in bytes.
func (n *NIC) SRAMFree() int { return n.sramSize - n.sramUsed }

// ReserveSRAM claims nbytes of on-board SRAM for a firmware structure
// (translation tables, cache arrays, command buffers). The per-process
// UTLB design fails here when too many or too large tables are
// requested — the size pressure that motivates the Shared UTLB-Cache.
func (n *NIC) ReserveSRAM(nbytes int) error {
	if nbytes < 0 {
		panic(fmt.Sprintf("nicsim: negative SRAM reservation %d", nbytes))
	}
	if n.sramUsed+nbytes > n.sramSize {
		return fmt.Errorf("nicsim: SRAM exhausted: want %d, free %d", nbytes, n.SRAMFree())
	}
	n.sramUsed += nbytes
	return nil
}

// ReleaseSRAM returns a reservation made with ReserveSRAM.
func (n *NIC) ReleaseSRAM(nbytes int) {
	if nbytes < 0 || nbytes > n.sramUsed {
		panic(fmt.Sprintf("nicsim: bad SRAM release %d (used %d)", nbytes, n.sramUsed))
	}
	n.sramUsed -= nbytes
}

// FetchEntries DMAs count 8-byte translation entries from host memory
// at pa, charging the NIC clock (the firmware blocks on its DMA). The
// returned words live in the bus' reused fetch buffer and are only
// valid until the next fetch — decode them before the next miss.
func (n *NIC) FetchEntries(pa units.PAddr, count int) []uint64 {
	n.dmaFetches++
	return n.bus.ReadWords(pa, count)
}

// DMAFetches reports how many entry-fetch DMA transactions have run.
func (n *NIC) DMAFetches() int64 { return n.dmaFetches }

// ChargeLookupBase charges the fixed translation-lookup entry cost.
func (n *NIC) ChargeLookupBase() { n.clock.Advance(n.costs.LookupBase) }

// ChargeProbes charges k cache-entry probes.
func (n *NIC) ChargeProbes(k int) {
	n.clock.Advance(units.Time(k) * n.costs.CacheProbe)
}

// ChargeBatchEntry charges the per-entry continuation cost of a
// batched translation dispatch (every batch entry after the first).
func (n *NIC) ChargeBatchEntry() { n.clock.Advance(n.costs.BatchEntry) }

// ChargeDirectoryProbe charges one page-directory SRAM reference.
func (n *NIC) ChargeDirectoryProbe() { n.clock.Advance(n.costs.DirectoryProbe) }

// ChargeInstall charges the cost of installing k fetched entries.
func (n *NIC) ChargeInstall(k int) {
	n.clock.Advance(units.Time(k) * n.costs.CacheInstall)
}

// ChargePoll charges one doorbell poll.
func (n *NIC) ChargePoll() { n.clock.Advance(n.costs.DoorbellPoll) }
