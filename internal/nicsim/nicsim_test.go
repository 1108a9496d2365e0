package nicsim

import (
	"math"
	"testing"

	"utlb/internal/bus"
	"utlb/internal/phys"
	"utlb/internal/units"
)

func newNIC(t *testing.T) (*NIC, *units.Clock) {
	t.Helper()
	mem := phys.NewMemory(8 * units.PageSize)
	for i := 0; i < 8; i++ {
		mem.Alloc()
	}
	clk := units.NewClock()
	b := bus.New(mem, clk, bus.DefaultCosts())
	return New(3, units.MB, clk, b, DefaultCosts()), clk
}

// The paper's hit cost: lookup base + one probe = 0.8 µs on a
// direct-mapped cache.
func TestHitCostCalibration(t *testing.T) {
	n, clk := newNIC(t)
	before := clk.Now()
	n.ChargeLookupBase()
	n.ChargeProbes(1)
	got := (clk.Now() - before).Micros()
	if math.Abs(got-0.8) > 0.01 {
		t.Errorf("direct-mapped hit = %.2fus, paper 0.8us", got)
	}
}

// Total miss cost (Table 2): hit path + directory probe + DMA + install
// must land near the paper's 1.8–3.2 µs, and exceed the bare DMA cost.
func TestMissCostCalibration(t *testing.T) {
	paper := map[int]float64{1: 1.8, 2: 1.9, 4: 1.9, 8: 2.3, 16: 2.8, 32: 3.2}
	for entries, want := range paper {
		n, clk := newNIC(t)
		before := clk.Now()
		n.ChargeDirectoryProbe()
		n.FetchEntries(0, entries)
		n.ChargeInstall(entries)
		got := (clk.Now() - before).Micros()
		if math.Abs(got-want)/want > 0.20 {
			t.Errorf("miss cost(%d entries) = %.2fus, paper %.1fus", entries, got, want)
		}
		dma := n.Bus().Costs().EntryFetchCost(entries).Micros()
		if got <= dma {
			t.Errorf("miss cost %.2f not above DMA cost %.2f", got, dma)
		}
	}
}

func TestSRAMReservation(t *testing.T) {
	n, _ := newNIC(t)
	if n.SRAMSize() != units.MB || n.SRAMFree() != units.MB {
		t.Fatalf("SRAM sizing wrong: %d/%d", n.SRAMFree(), n.SRAMSize())
	}
	if err := n.ReserveSRAM(512 * units.KB); err != nil {
		t.Fatal(err)
	}
	if err := n.ReserveSRAM(512 * units.KB); err != nil {
		t.Fatal(err)
	}
	if err := n.ReserveSRAM(1); err == nil {
		t.Error("over-reservation accepted")
	}
	n.ReleaseSRAM(512 * units.KB)
	if n.SRAMFree() != 512*units.KB {
		t.Errorf("SRAMFree = %d", n.SRAMFree())
	}
}

func TestReleaseTooMuchPanics(t *testing.T) {
	n, _ := newNIC(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.ReleaseSRAM(1)
}

func TestFetchEntriesReadsHostMemory(t *testing.T) {
	n, _ := newNIC(t)
	words := make([]byte, 24) // little-endian 7, 8, 9
	words[0], words[8], words[16] = 7, 8, 9
	n.Bus().WriteData(0x40, words)
	got := n.FetchEntries(0x40, 3)
	if got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Errorf("FetchEntries = %v", got)
	}
	if n.DMAFetches() != 1 {
		t.Errorf("DMAFetches = %d", n.DMAFetches())
	}
}

func TestSetAssocProbesCostMore(t *testing.T) {
	// §6.3: firmware checks one entry at a time, so a 4-way lookup
	// costs more than a direct-mapped one.
	n, clk := newNIC(t)
	n.ChargeLookupBase()
	n.ChargeProbes(1)
	direct := clk.Now()
	n.ChargeLookupBase()
	n.ChargeProbes(4)
	fourWay := clk.Now() - direct
	if fourWay <= direct {
		t.Errorf("4-way lookup %v not costlier than direct %v", fourWay, direct)
	}
}
