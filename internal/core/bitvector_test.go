package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"utlb/internal/hostos"
	"utlb/internal/units"
)

func newBV(t *testing.T) (*BitVector, *units.Clock) {
	t.Helper()
	clk := units.NewClock()
	return NewBitVector(1<<16, hostos.DefaultCosts(), clk), clk
}

func TestBitVectorSetClearGet(t *testing.T) {
	bv, _ := newBV(t)
	bv.Set(100, 3)
	for i := units.VPN(100); i < 103; i++ {
		if !bv.Get(i) {
			t.Errorf("page %d not set", i)
		}
	}
	if bv.Get(99) || bv.Get(103) {
		t.Error("neighbouring pages set")
	}
	bv.Clear(101, 1)
	if bv.Get(101) || !bv.Get(100) || !bv.Get(102) {
		t.Error("Clear wrong")
	}
}

func TestCheckHitReturnsNil(t *testing.T) {
	bv, _ := newBV(t)
	bv.Set(10, 5)
	if missing := bv.Check(10, 5); missing != nil {
		t.Errorf("missing = %v, want nil", missing)
	}
}

func TestCheckReportsMissingInOrder(t *testing.T) {
	bv, _ := newBV(t)
	bv.Set(20, 1)
	bv.Set(22, 1)
	missing := bv.Check(20, 4) // pages 20..23, missing 21 and 23
	if len(missing) != 2 || missing[0] != 21 || missing[1] != 23 {
		t.Errorf("missing = %v", missing)
	}
}

func TestCheckChargesTime(t *testing.T) {
	bv, clk := newBV(t)
	before := clk.Now()
	bv.Check(0, 1)
	if clk.Now() == before {
		t.Error("Check charged no time")
	}
}

func TestCheckZeroPages(t *testing.T) {
	bv, clk := newBV(t)
	before := clk.Now()
	if missing := bv.Check(5, 0); missing != nil {
		t.Errorf("missing = %v", missing)
	}
	if clk.Now() == before {
		t.Error("even an empty check enters the procedure")
	}
}

// Table 1 calibration: the fast (aligned, all-pinned) path must cost
// about 0.2 µs, and the worst case for 32 pages 0.4–0.9 µs.
func TestCheckCostCalibration(t *testing.T) {
	costs := hostos.DefaultCosts()

	fastCost := func(pages int) float64 {
		clk := units.NewClock()
		bv := NewBitVector(1<<16, costs, clk)
		bv.Set(0, 64*((pages+63)/64)) // whole words pinned
		t0 := clk.Now()
		bv.Check(0, pages)
		return (clk.Now() - t0).Micros()
	}
	slowCost := func(pages int) float64 {
		clk := units.NewClock()
		bv := NewBitVector(1<<16, costs, clk)
		bv.Set(33, pages) // misaligned start
		t0 := clk.Now()
		bv.Check(33, pages)
		return (clk.Now() - t0).Micros()
	}
	for _, pages := range []int{1, 2, 4, 8, 16, 32} {
		fast, slow := fastCost(pages), slowCost(pages)
		if fast < 0.15 || fast > 0.3 {
			t.Errorf("fast check(%d) = %.2fus, want ~0.2us", pages, fast)
		}
		if slow < 0.3 || slow > 0.9 {
			t.Errorf("slow check(%d) = %.2fus, want 0.4-0.7us", pages, slow)
		}
		if slow <= fast {
			t.Errorf("slow path (%f) not costlier than fast (%f)", slow, fast)
		}
	}
}

func TestCheckCostVariesWithBitPosition(t *testing.T) {
	// The paper: "The cost of checking the bit map varies with the
	// first bit's position in the bit map."
	costs := hostos.DefaultCosts()
	cost := func(start units.VPN) units.Time {
		clk := units.NewClock()
		bv := NewBitVector(1<<16, costs, clk)
		bv.Set(start, 4)
		t0 := clk.Now()
		bv.Check(start, 4)
		return clk.Now() - t0
	}
	if cost(64) == cost(65) {
		t.Error("aligned and misaligned checks cost the same")
	}
}

func TestBitVectorBoundsPanic(t *testing.T) {
	bv, _ := newBV(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic out of range")
		}
	}()
	bv.Check(units.VPN(bv.Pages()-1), 2)
}

func TestNewBitVectorBadSizePanics(t *testing.T) {
	for _, pages := range []int{0, -1, VASpacePages + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %d pages", pages)
				}
			}()
			NewBitVector(pages, hostos.DefaultCosts(), units.NewClock())
		}()
	}
}

// Property: Check reports exactly the unset pages of the range.
func TestCheckMatchesGetProperty(t *testing.T) {
	bv, _ := newBV(t)
	f := func(ops []uint16, start uint16, nRaw uint8) bool {
		for _, op := range ops {
			vpn := units.VPN(op % 4096)
			if op%2 == 0 {
				bv.Set(vpn, 1)
			} else {
				bv.Clear(vpn, 1)
			}
		}
		n := int(nRaw%64) + 1
		s := units.VPN(start % 4000)
		missing := bv.Check(s, n)
		want := map[units.VPN]bool{}
		for i := 0; i < n; i++ {
			if !bv.Get(s + units.VPN(i)) {
				want[s+units.VPN(i)] = true
			}
		}
		if len(missing) != len(want) {
			return false
		}
		for _, m := range missing {
			if !want[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Reset clears only the words Set wrote since the last Reset; whatever
// a run set, anywhere in the vector, the next run starts empty.
func TestBitVectorResetClearsEveryRun(t *testing.T) {
	bv, clk := newBV(t)
	rng := rand.New(rand.NewSource(3))
	for run := 0; run < 4; run++ {
		for range 20 {
			n := rng.Intn(130)
			bv.Set(units.VPN(rng.Intn(bv.Pages()-n)), n)
		}
		bv.Set(units.VPN(bv.Pages()-1), 1)
		bv.Reset(hostos.DefaultCosts(), clk)
		for w, word := range bv.words {
			if word != 0 {
				t.Fatalf("run %d: word %d = %#x after Reset", run, w, word)
			}
		}
	}
}

// FuzzBitVector holds the word-at-a-time Set, Clear and Check to a
// per-bit reference over ranges at any alignment, inside one word or
// across several. Each op is 4 bytes: its kind, a start page in the
// first 1024 and a length up to 255.
func FuzzBitVector(f *testing.F) {
	f.Add([]byte{0, 3, 0, 70, 2, 0, 0, 200, 1, 64, 0, 1, 2, 60, 0, 10})
	f.Add([]byte{0, 0, 0, 128, 2, 0, 0, 128, 2, 1, 0, 127, 1, 127, 0, 2, 2, 120, 0, 16})
	f.Fuzz(func(t *testing.T, ops []byte) {
		bv, _ := newBV(t)
		var ref [1024 + 255]bool
		for ; len(ops) >= 4; ops = ops[4:] {
			vpn := int(ops[1]) | int(ops[2]&3)<<8
			n := int(ops[3])
			switch ops[0] % 3 {
			case 0:
				bv.Set(units.VPN(vpn), n)
				for i := vpn; i < vpn+n; i++ {
					ref[i] = true
				}
			case 1:
				bv.Clear(units.VPN(vpn), n)
				for i := vpn; i < vpn+n; i++ {
					ref[i] = false
				}
			case 2:
				var want []units.VPN
				for i := vpn; i < vpn+n; i++ {
					if !ref[i] {
						want = append(want, units.VPN(i))
					}
				}
				if got := bv.Check(units.VPN(vpn), n); !slices.Equal(got, want) {
					t.Fatalf("Check(%d, %d) = %v, want %v", vpn, n, got, want)
				}
			}
		}
		for p, want := range ref {
			if bv.Get(units.VPN(p)) != want {
				t.Fatalf("page %d: Get = %v, want %v", p, !want, want)
			}
		}
	})
}
