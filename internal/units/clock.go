package units

// Clock is a monotonically advancing virtual clock and the ledger of
// what advanced it: every charge names its Row, so a split of the time
// is a read of rows. Charge is work (position and busy time move);
// AdvanceTo is waiting on another component (position moves, busy time
// does not). Sequential charging never waits, so Busy() == Now()
// there. The zero value is ready to use.
type Clock struct {
	now    Time
	ledger *Ledger // allocated by the first charge, unless KeepIn gave one
}

// Row names what a charge paid for, for every clock: host rows (a call's
// syscall, call and page rows in that order), NIC, DMA (the NIC clock's
// when sequential, a channel's under overlap), vmmc. A row named for a
// field of hostos.Costs, nicsim.Costs or bus.Costs, or in its comment,
// counts units of it; check, reclaim and booking are composite.
type Row uint8

const (
	RowCheck Row = iota
	RowPinSyscall
	RowPin
	RowPinPage
	RowUnpinSyscall
	RowUnpin
	RowUnpinPage
	RowInterrupt
	RowReclaim
	RowLookup
	RowBatchEntry
	RowProbe
	RowDirectory
	RowInstall
	RowPoll
	RowDMASetup
	RowDMAWord
	RowDMAByte
	RowBooking   // event.Pool.Reserve: a channel booked for a given time
	RowRemap     // vmmc.RemapCost, doubled per retry
	RowRoundTrip // in header-packet times
	RowTimeout   // a link-layer retransmission timeout
	Rows
)

func (r Row) String() string {
	return [Rows]string{"check", "pin syscall", "pin", "pin page", "unpin syscall", "unpin",
		"unpin page", "interrupt", "reclaim", "lookup", "batch entry", "probe", "directory",
		"install", "poll", "dma setup", "dma word", "dma byte", "booking", "remap",
		"round trip", "timeout"}[r]
}

// Line is one row's tally: the units charged to it and their time.
type Line struct {
	Count int64
	Total Time
}

// Ledger is a clock's rows, fixed in size: they are its busy time.
type Ledger [Rows]Line

// NewClock returns a clock starting at time zero.
func NewClock() *Clock { return &Clock{} }

// KeepIn empties l and makes it c's ledger, before c's first charge:
// an owner that runs clock after clock keeps their rows in one place.
func (c *Clock) KeepIn(l *Ledger) { *l, c.ledger = Ledger{}, l }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Busy reports the working time: the sum of the rows, waits excluded.
func (c *Clock) Busy() (t Time) {
	for r := range Rows {
		t += c.Line(r).Total
	}
	return t
}

// Line reports row's tally.
func (c *Clock) Line(row Row) Line {
	if c.ledger == nil {
		return Line{}
	}
	return c.ledger[row]
}

// Sum reports the time charged to rows.
func (c *Clock) Sum(rows ...Row) (t Time) {
	for _, r := range rows {
		t += c.Line(r).Total
	}
	return t
}

// Charge moves the clock forward by n units of unit, counting them on
// row and accruing busy time. Negative charges panic: time in the
// simulation never runs backwards.
func (c *Clock) Charge(row Row, n int, unit Time) {
	if n < 0 || unit < 0 {
		panic("units: clock charged a negative duration")
	}
	if c.ledger == nil {
		c.ledger = new(Ledger)
	}
	c.ledger[row].Count += int64(n)
	c.ledger[row].Total += Time(n) * unit
	c.now += Time(n) * unit
}

// AdvanceTo moves the clock to t if t is in the future; otherwise it is
// a no-op. Used when synchronising a component with an event timestamp:
// the elapsed interval is waiting, not work, so busy time is untouched.
func (c *Clock) AdvanceTo(t Time) {
	if t > c.now {
		c.now = t
	}
}
