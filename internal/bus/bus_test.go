package bus

import (
	"fmt"
	"math"
	"testing"

	"utlb/internal/event"
	"utlb/internal/obs"
	"utlb/internal/phys"
	"utlb/internal/units"
)

func newBus(t *testing.T, frames int) (*Bus, *phys.Memory, *units.Clock) {
	t.Helper()
	mem := phys.NewMemory(int64(frames) * units.PageSize)
	for i := 0; i < frames; i++ {
		if _, err := mem.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	clk := units.NewClock()
	return New(mem, clk, DefaultCosts()), mem, clk
}

// Table 2 calibration: DMA cost for 1..32 entries must land near the
// paper's 1.5–2.5 µs curve (within 15%).
func TestEntryFetchCostCalibration(t *testing.T) {
	c := DefaultCosts()
	paper := map[int]float64{1: 1.5, 2: 1.6, 4: 1.6, 8: 1.9, 16: 2.1, 32: 2.5}
	for n, want := range paper {
		got := c.EntryFetchCost(n).Micros()
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("EntryFetchCost(%d) = %.2fus, paper %.1fus", n, got, want)
		}
	}
}

func TestSetupDominatesSmallFetches(t *testing.T) {
	// The paper: "DMA setup dominates the total fetch time for a small
	// number of words" — fetching 8 entries must cost well under 2x
	// fetching 1.
	c := DefaultCosts()
	if c.EntryFetchCost(8) >= 2*c.EntryFetchCost(1) {
		t.Errorf("setup does not dominate: 1->%v 8->%v",
			c.EntryFetchCost(1), c.EntryFetchCost(8))
	}
}

func TestZeroCosts(t *testing.T) {
	c := DefaultCosts()
	if c.EntryFetchCost(0) != 0 || c.DataCost(0) != 0 || c.DataCost(-1) != 0 {
		t.Error("zero-size transfers should cost nothing")
	}
}

func TestReadWords(t *testing.T) {
	b, mem, clk := newBus(t, 4)
	words := []uint64{1, 0xffffffffffffffff, 42}
	for i, w := range words {
		mem.WriteWord(0x100+units.PAddr(i*8), w)
	}
	before := clk.Now()
	got := b.ReadWords(0x100, 3)
	for i := range words {
		if got[i] != words[i] {
			t.Errorf("word %d = %#x, want %#x", i, got[i], words[i])
		}
	}
	charged := clk.Now() - before
	want := b.Costs().EntryFetchCost(3)
	if charged != want {
		t.Errorf("charged %v, want %v", charged, want)
	}
}

func TestReadWriteData(t *testing.T) {
	b, _, clk := newBus(t, 4)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	before := clk.Now()
	b.WriteData(units.PageSize, data)
	got := b.ReadData(units.PageSize, len(data))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if clk.Now()-before != 2*b.Costs().DataCost(4096) {
		t.Error("data cost not charged")
	}
	// A 4 KB page at ~127 MB/s should take tens of microseconds.
	us := b.Costs().DataCost(4096).Micros()
	if us < 20 || us > 60 {
		t.Errorf("page DMA = %.1fus, expected 20-60us", us)
	}
}

func TestStats(t *testing.T) {
	b, _, _ := newBus(t, 4)
	b.WriteData(0, make([]byte, 16))
	b.ReadWords(0, 2)
	b.WriteData(units.PageSize, []byte{1, 2, 3})
	reads, writes, br, bw := b.Stats()
	if reads != 1 || writes != 2 || br != 16 || bw != 19 {
		t.Errorf("Stats = %d %d %d %d", reads, writes, br, bw)
	}
}

func TestNegativeWordCountPanics(t *testing.T) {
	b, _, _ := newBus(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.ReadWords(0, -1)
}

// TestTransferChargingModes holds the three transfer kinds to both arms
// of Bus.transfer. Sequentially the clock does the work: it moves, and
// accrues busy time, by the full cost, and the recorded span is the
// clock's. On a one-channel overlap pool the channel does the work: it
// is booked for the full cost (the recorded span), the clock only waits
// for the part the firmware depends on — the demand entry of a
// prefetching fetch, nothing for a posted write, everything for payload
// it consumes — a second transfer queues behind the first, and every
// transfer is in flight until the kernel dispatches its completion.
func TestTransferChargingModes(t *testing.T) {
	costs := DefaultCosts()
	data := make([]byte, 1000)
	ops := []struct {
		name        string
		kind        obs.Kind
		cost, block units.Time
		bytes       uint64
		issue       func(b *Bus)
	}{
		{"ReadWords", obs.KindDMARead, costs.EntryFetchCost(8), costs.EntryFetchCost(1), 64,
			func(b *Bus) { b.ReadWords(0x100, 8) }},
		{"ReadData", obs.KindDMARead, costs.DataCost(4096), costs.DataCost(4096), 4096,
			func(b *Bus) { b.ReadData(units.PageSize, 4096) }},
		{"WriteData", obs.KindDMAWrite, costs.DataCost(1000), 0, 1000,
			func(b *Bus) { b.WriteData(units.PageSize, data) }},
	}
	const t0 = units.Time(5000)
	for _, op := range ops {
		for _, overlap := range []bool{false, true} {
			b, _, clk := newBus(t, 4)
			var buf obs.Buffer
			b.SetTap(obs.NewTap(&buf, 0))
			k := event.NewKernel()
			if overlap {
				b.SetOverlap(k, event.NewPool(1))
			}
			// Where the clock stands after each transfer, what it accrues
			// as work, where each span starts, and what is in flight.
			now := [2]units.Time{t0 + op.cost, t0 + 2*op.cost}
			busy, starts, inflight := 2*op.cost, [2]units.Time{t0, t0 + op.cost}, int64(0)
			if overlap {
				now = [2]units.Time{t0 + op.block, t0 + op.cost + op.block}
				busy, inflight = 0, 2
			}
			name := fmt.Sprintf("%s overlap=%v", op.name, overlap)
			clk.AdvanceTo(t0)
			for i := range now {
				op.issue(b)
				if clk.Now() != now[i] {
					t.Errorf("%s: clock at %v after transfer %d, want %v", name, clk.Now(), i, now[i])
				}
			}
			if clk.Busy() != busy {
				t.Errorf("%s: clock accrued %v of work, want %v", name, clk.Busy(), busy)
			}
			events := buf.Events()
			if len(events) != 2 {
				t.Fatalf("%s: %d events recorded, want 2", name, len(events))
			}
			for i, ev := range events {
				if ev.Kind != op.kind || ev.Time != starts[i] || ev.Dur != op.cost || uint64(ev.Arg) != op.bytes {
					t.Errorf("%s: span %d = %s [%v,+%v) %d B, want %s [%v,+%v) %d B", name, i,
						ev.Kind, ev.Time, ev.Dur, ev.Arg, op.kind, starts[i], op.cost, op.bytes)
				}
			}
			if b.InFlight() != inflight {
				t.Errorf("%s: %d in flight before the drain, want %d", name, b.InFlight(), inflight)
			}
			k.Run()
			if b.InFlight() != 0 {
				t.Errorf("%s: %d in flight after the drain, want 0", name, b.InFlight())
			}
			if overlap && k.Now() != t0+2*op.cost {
				t.Errorf("%s: last completion at %v, want %v", name, k.Now(), t0+2*op.cost)
			}
		}
	}
}
