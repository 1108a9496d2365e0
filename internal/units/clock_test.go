package units

import "testing"

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 || c.Busy() != 0 || c.Line(RowProbe) != (Line{}) {
		t.Errorf("fresh clock Now = %d, Busy = %d, probe %+v", c.Now(), c.Busy(), c.Line(RowProbe))
	}
	c.Charge(RowLookup, 1, 5*Microsecond)
	c.Charge(RowProbe, 0, 100)
	if c.Now() != 5*Microsecond {
		t.Errorf("Now = %v", c.Now())
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	for _, n := range []int{-1, 1} {
		func() {
			c := NewClock()
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on a charge of %d units of %d", n, -n)
				}
			}()
			c.Charge(RowCheck, n, Time(-n))
		}()
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(10)
	if c.Now() != 10 {
		t.Errorf("Now = %d, want 10", c.Now())
	}
	c.AdvanceTo(5) // past timestamps never rewind the clock
	if c.Now() != 10 {
		t.Errorf("Now after past AdvanceTo = %d, want 10", c.Now())
	}
}

// TestClockBusyVsPosition pins the work/wait split: Charge accrues
// busy time, AdvanceTo (waiting on another component) does not, and a
// clock that never waits has Busy() == Now() — the invariant the
// sequential-compatibility mode relies on.
func TestClockBusyVsPosition(t *testing.T) {
	c := NewClock()
	c.Charge(RowCheck, 1, 4)
	if c.Busy() != 4 || c.Now() != 4 {
		t.Fatalf("after work: Busy %d Now %d, want 4/4", c.Busy(), c.Now())
	}
	c.AdvanceTo(10) // 6 units of waiting
	if c.Busy() != 4 {
		t.Errorf("waiting accrued busy time: Busy = %d, want 4", c.Busy())
	}
	if c.Now() != 10 {
		t.Errorf("Now = %d, want 10", c.Now())
	}
	c.Charge(RowCheck, 1, 3)
	if c.Busy() != 7 || c.Now() != 13 {
		t.Errorf("after more work: Busy %d Now %d, want 7/13", c.Busy(), c.Now())
	}

	seq := NewClock()
	seq.Charge(RowPin, 1, 2)
	seq.Charge(RowPinPage, 3, 3)
	if seq.Busy() != seq.Now() {
		t.Errorf("never-waiting clock: Busy %d != Now %d", seq.Busy(), seq.Now())
	}
}

// TestClockLedger: each charge lands on its row as units and time, the
// rows sum to Busy(), and KeepIn moves the rows into a caller's ledger,
// emptied, which the clock then charges without allocating.
func TestClockLedger(t *testing.T) {
	var l Ledger
	l[RowDMAWord] = Line{Count: 1, Total: 99} // a previous clock's
	c := NewClock()
	c.KeepIn(&l)
	if c.Busy() != 0 || c.Line(RowDMAWord) != (Line{}) {
		t.Fatalf("KeepIn kept the old rows: Busy %v, word %+v", c.Busy(), c.Line(RowDMAWord))
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Charge(RowDMASetup, 1, 1468)
		c.Charge(RowDMAWord, 8, 32)
		c.AdvanceTo(c.Now() + 50)
	}); n != 0 {
		t.Errorf("a charge allocates %v times", n)
	}
	runs := int64(101) // AllocsPerRun's warm-up call and its 100
	if got, want := c.Line(RowDMAWord), (Line{Count: 8 * runs, Total: Time(8*32) * Time(runs)}); got != want {
		t.Errorf("word row %+v, want %+v", got, want)
	}
	sum := Time(1468+8*32) * Time(runs)
	if c.Busy() != sum || c.Sum(RowDMASetup, RowDMAWord) != sum || l[RowDMASetup].Total+l[RowDMAWord].Total != sum {
		t.Errorf("Busy %v, Sum %v, the kept ledger %+v, want %v", c.Busy(), c.Sum(RowDMASetup, RowDMAWord), l, sum)
	}
	if c.Now() != sum+Time(50*runs) {
		t.Errorf("Now %v, want the work %v plus the waits", c.Now(), sum)
	}
}
