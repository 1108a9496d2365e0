// Package bus models the host I/O bus (PCI on the paper's machines):
// the path the network interface uses to DMA translation-table entries
// and message data between host DRAM and NIC SRAM.
//
// The model is a cost function, not a bandwidth arbiter: DMA setup
// dominates small transfers (which is why the paper's prefetch cost
// "remains relatively constant with respect to the number of entries
// fetched"), and a per-byte cost models bandwidth for bulk data.
package bus

import (
	"fmt"

	"utlb/internal/event"
	"utlb/internal/obs"
	"utlb/internal/phys"
	"utlb/internal/units"
)

// Costs parameterises the bus.
type Costs struct {
	// DMASetup is the fixed cost to program one DMA transaction.
	DMASetup units.Time
	// DMAPerWord is the incremental cost per 8-byte word for small
	// descriptor-sized transfers (translation entries).
	DMAPerWord units.Time
	// DMAPerByte is the incremental cost per byte for bulk data,
	// i.e. the inverse of bus bandwidth.
	DMAPerByte units.Time
}

// DefaultCosts calibrates the bus against Table 2: fetching 1 entry
// costs ≈1.5 µs and 32 entries ≈2.5 µs, so setup ≈1.47 µs and each
// 8-byte word ≈32 ns. Bulk bandwidth is ≈127 MB/s (PCI era), ≈7.9 ns/B.
func DefaultCosts() Costs {
	return Costs{
		DMASetup:   units.FromMicros(1.468),
		DMAPerWord: units.FromMicros(0.032),
		DMAPerByte: units.FromMicros(0.0079),
	}
}

// EntryFetchCost reports the DMA cost of reading n translation entries
// (one 8-byte word each) from host memory — the paper's "DMA cost" row
// in Table 2.
func (c Costs) EntryFetchCost(n int) units.Time {
	if n <= 0 {
		return 0
	}
	return c.DMASetup + units.Time(n)*c.DMAPerWord
}

// DataCost reports the DMA cost of moving n bytes of message data.
func (c Costs) DataCost(n int) units.Time {
	if n <= 0 {
		return 0
	}
	return c.DMASetup + units.Time(n)*c.DMAPerByte
}

// Bus is one node's I/O bus, connecting a NIC to host physical memory.
// All DMA time is charged to the clock passed at construction (the NIC
// processor blocks on its own DMA in the paper's firmware).
type Bus struct {
	costs Costs
	mem   *phys.Memory
	clock *units.Clock

	// Transfer statistics for experiments and tests.
	reads      int64
	writes     int64
	bytesRead  int64
	bytesWrite int64

	// tap records each DMA transfer as a span on the bus track; nil —
	// the default — records nothing.
	tap *obs.Tap

	// words is ReadWords' reused result buffer (the returned slice is
	// only valid until the next ReadWords call; see that method).
	words []uint64

	// Overlap engine (nil = the strictly sequential charging model).
	// With a channel pool attached, transfers reserve a DMA channel
	// instead of serialising on the NIC clock: the NIC blocks only on
	// the portion it genuinely depends on (the demand entry of a
	// prefetch, channel availability for a posted write) and the rest
	// of the transfer streams on the channel. Each transfer's
	// completion is posted to the kernel, so the run's drain observes
	// every in-flight DMA landing before the makespan is read.
	kernel     *event.Kernel
	dma        *event.Pool
	inflight   int64
	completeFn event.Handler
}

// New returns a bus over mem charging time to clock.
func New(mem *phys.Memory, clock *units.Clock, costs Costs) *Bus {
	return &Bus{costs: costs, mem: mem, clock: clock}
}

// Costs returns the bus cost model.
func (b *Bus) Costs() Costs { return b.costs }

// SetTap attaches the recording handle (nil detaches): every DMA
// transfer is recorded as a span whose start is the clock before the
// transfer and whose duration is its charged cost.
func (b *Bus) SetTap(t *obs.Tap) { b.tap = t }

// SetOverlap attaches the overlap engine: transfers reserve channels
// on pool and post their completions to k. Both nil (the default)
// keeps the sequential charging model, where every transfer blocks the
// NIC clock for its full cost.
func (b *Bus) SetOverlap(k *event.Kernel, pool *event.Pool) {
	if (k == nil) != (pool == nil) {
		panic("bus: overlap engine needs both kernel and pool")
	}
	b.kernel = k
	b.dma = pool
	if k != nil && b.completeFn == nil {
		// One handler retires every transfer: built once per engine
		// attach, at run setup, so issuing a DMA allocates nothing
		// beyond the kernel's list slot.
		b.completeFn = func(units.Time) { b.inflight-- }
	}
}

// InFlight reports transfers issued on the overlap engine whose
// completion events have not yet dispatched. It must be zero after the
// kernel drains — the invariant the simulator checks before reading
// the makespan.
func (b *Bus) InFlight() int64 { return b.inflight }

// transfer charges one DMA of n units of unit on row per, after its
// setup (nothing for n = 0), and is the one place the bus chooses
// between its two charging modes. Sequentially the NIC clock does the
// whole transfer, and the recorded span is what it charged. On the
// overlap engine a DMA channel does it: the transfer takes the
// earliest-free channel from the clock's position, the recorded span is
// that booking, the clock only waits (AdvanceTo — waiting, not work)
// until block of the booking has passed, and the completion event lands
// at the booking's end. block is the part the firmware depends on: 0
// for a posted write, all of it for data it consumes, the demand
// entry's share for a prefetching fetch.
func (b *Bus) transfer(kind obs.Kind, per units.Row, n int, unit, block units.Time, bytes int64) {
	c, start := b.clock, b.clock.Now()
	if b.dma != nil {
		c, _ = b.dma.Take(start)
		start = c.Now()
	}
	if n > 0 {
		c.Charge(units.RowDMASetup, 1, b.costs.DMASetup)
		c.Charge(per, n, unit)
	}
	if b.dma != nil {
		b.clock.AdvanceTo(start + block)
		b.inflight++
		b.kernel.At(c.Now(), b.completeFn)
	}
	b.tap.Span(kind, start, c.Now()-start, 0, uint64(bytes), 0)
}

// ReadWords DMAs n consecutive 8-byte words starting at pa from host
// memory, charging the entry-fetch cost. This is the Shared UTLB-Cache
// miss path: the NIC reads translation entries out of the host-resident
// table — it runs on every cache miss, so the result lives in a bus-
// owned buffer that the next ReadWords call overwrites. Callers decode
// the words before issuing another fetch (the firmware is sequential).
func (b *Bus) ReadWords(pa units.PAddr, n int) []uint64 {
	if n < 0 {
		panic(fmt.Sprintf("bus: negative word count %d", n))
	}
	// Prefetch-under-miss: the firmware depends only on the demand
	// entry (the first word); the prefetched tail streams on the
	// channel while the NIC resumes translation.
	b.transfer(obs.KindDMARead, units.RowDMAWord, n, b.costs.DMAPerWord, b.costs.EntryFetchCost(min(n, 1)), int64(n)*8)
	b.reads++
	b.bytesRead += int64(n) * 8
	if cap(b.words) < n {
		b.words = make([]uint64, n)
	}
	out := b.words[:n]
	b.mem.ReadWords(pa, out)
	return out
}

// ReadData DMAs n bytes of bulk data from host memory at pa, charging
// the bandwidth-dominated data cost. Used for outgoing message
// payloads, which the firmware consumes: it blocks for the whole
// transfer — but on a channel, so other channels (and the host) keep
// working underneath it.
func (b *Bus) ReadData(pa units.PAddr, n int) []byte {
	b.transfer(obs.KindDMARead, units.RowDMAByte, n, b.costs.DMAPerByte, b.costs.DataCost(n), int64(n))
	b.reads++
	b.bytesRead += int64(n)
	return b.mem.Read(pa, n)
}

// WriteData DMAs bulk data into host memory at pa. Used for incoming
// message payloads landing in a receive buffer. The write is posted:
// the NIC waits only for a free channel, not for the bytes to land.
func (b *Bus) WriteData(pa units.PAddr, data []byte) {
	b.transfer(obs.KindDMAWrite, units.RowDMAByte, len(data), b.costs.DMAPerByte, 0, int64(len(data)))
	b.writes++
	b.bytesWrite += int64(len(data))
	b.mem.Write(pa, data)
}

// Stats reports cumulative transfer counts and byte totals
// (reads, writes, bytesRead, bytesWritten).
func (b *Bus) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	return b.reads, b.writes, b.bytesRead, b.bytesWrite
}
