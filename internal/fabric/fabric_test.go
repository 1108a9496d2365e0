package fabric

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"utlb/internal/fault"
	"utlb/internal/units"
)

// lossy returns a network whose packets drop and corrupt at the given
// rates, drawn by an injector seeded with seed.
func lossy(seed int64, drop, corrupt float64) *Network {
	return NewNetwork(DefaultLinkCosts(), fault.NewInjector(seed, fault.Plan{
		fault.SiteFabricDrop:    {Rate: drop},
		fault.SiteFabricCorrupt: {Rate: corrupt},
	}))
}

func TestPacketSealIntact(t *testing.T) {
	p := &Packet{Payload: []byte("hello")}
	p.Seal()
	if !p.Intact() {
		t.Error("sealed packet not intact")
	}
	p.Payload[0] ^= 0xff
	if p.Intact() {
		t.Error("corrupted packet reported intact")
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" || KindAck.String() != "ack" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestTransferTime(t *testing.T) {
	c := DefaultLinkCosts()
	// One 4 KB page at 160 MB/s is 25.6 µs of serialisation + 1 µs
	// latency + header time.
	got := c.TransferTime(4096).Micros()
	if got < 24 || got > 28 {
		t.Errorf("TransferTime(4096) = %.1fus", got)
	}
	if c.TransferTime(0) <= c.Latency {
		t.Error("header bytes should add to zero-payload time")
	}
}

func TestTransmitDelivers(t *testing.T) {
	n := NewNetwork(DefaultLinkCosts(), nil)
	var got *Packet
	var at units.Time
	n.Attach(2, func(p *Packet, arrival units.Time) { got, at = p, arrival })
	pkt := &Packet{Src: 1, Dst: 2, Payload: []byte("abc")}
	pkt.Seal()
	arrival, ok := n.Transmit(pkt, 1000)
	if !ok || got == nil {
		t.Fatal("packet not delivered")
	}
	if arrival != at {
		t.Errorf("handler arrival %v != returned %v", at, arrival)
	}
	if arrival <= 1000 {
		t.Error("no wire time charged")
	}
	if !bytes.Equal(got.Payload, []byte("abc")) || !got.Intact() {
		t.Error("payload mangled")
	}
	// Delivered packet must be a copy: mutating it must not affect
	// the sender's packet.
	got.Payload[0] = 'z'
	if pkt.Payload[0] != 'a' {
		t.Error("delivery aliases sender buffer")
	}
}

func TestTransmitUnknownDestination(t *testing.T) {
	n := NewNetwork(DefaultLinkCosts(), nil)
	if _, ok := n.Transmit(&Packet{Dst: 99}, 0); ok {
		t.Error("delivery to unattached node")
	}
}

func TestLinkSerialisation(t *testing.T) {
	// Two back-to-back packets from the same source must not overlap
	// on the outbound link: the second arrives later than it would
	// alone.
	n := NewNetwork(DefaultLinkCosts(), nil)
	n.Attach(2, func(*Packet, units.Time) {})
	big := make([]byte, 4096)
	a1, _ := n.Transmit(&Packet{Src: 1, Dst: 2, Payload: big}, 0)
	a2, _ := n.Transmit(&Packet{Src: 1, Dst: 2, Payload: big}, 0)
	if a2 <= a1 {
		t.Errorf("second packet arrival %v not after first %v", a2, a1)
	}
}

func TestDropInjectionDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		n := lossy(42, 0.5, 0)
		n.Attach(2, func(*Packet, units.Time) {})
		for i := 0; i < 100; i++ {
			n.Transmit(&Packet{Src: 1, Dst: 2, Payload: []byte{1}}, 0)
		}
		sent, delivered, dropped, _ := n.Stats()
		if sent != 100 || delivered+dropped != 100 {
			t.Fatalf("stats inconsistent: %d %d %d", sent, delivered, dropped)
		}
		return delivered, dropped
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Error("same seed produced different drop schedules")
	}
	if r1 == 0 || d1 == 0 {
		t.Errorf("expected both drops and deliveries at 50%%: %d/%d", d1, r1)
	}
}

func TestCorruptionCaughtByCRC(t *testing.T) {
	n := lossy(7, 0, 1.0)
	var intact, broken int
	n.Attach(2, func(p *Packet, _ units.Time) {
		if p.Intact() {
			intact++
		} else {
			broken++
		}
	})
	pkt := &Packet{Src: 1, Dst: 2, Payload: []byte("payload")}
	pkt.Seal()
	n.Transmit(pkt, 0)
	if broken != 1 || intact != 0 {
		t.Errorf("corruption not observed: intact=%d broken=%d", intact, broken)
	}
}

// An exact schedule reaches the wire packet for packet: Every: 3 drops
// packets 3, 6, ..., 30 of 30, and Every: 2 corrupts every other
// delivered packet, which the receiver's CRC catches.
func TestFaultSchedulesOnTheWire(t *testing.T) {
	n := NewNetwork(DefaultLinkCosts(), fault.NewInjector(1, fault.Plan{
		fault.SiteFabricDrop:    {Every: 3},
		fault.SiteFabricCorrupt: {Every: 2},
	}))
	var intact []bool
	n.Attach(2, func(p *Packet, _ units.Time) { intact = append(intact, p.Intact()) })
	for i := 1; i <= 30; i++ {
		pkt := &Packet{Src: 1, Dst: 2, Payload: []byte{byte(i)}}
		pkt.Seal()
		if _, ok := n.Transmit(pkt, 0); ok == (i%3 == 0) {
			t.Errorf("packet %d: delivered = %v, want %v", i, ok, i%3 != 0)
		}
	}
	sent, delivered, dropped, corrupted := n.Stats()
	if sent != 30 || delivered != 20 || dropped != 10 || corrupted != 10 {
		t.Errorf("Stats = sent %d, delivered %d, dropped %d, corrupted %d; want 30, 20, 10, 10",
			sent, delivered, dropped, corrupted)
	}
	for i, ok := range intact {
		if ok != (i%2 == 0) {
			t.Errorf("delivery %d: CRC intact = %v, want %v", i+1, ok, i%2 == 0)
		}
	}
}

func TestReliableDeliveryCleanLink(t *testing.T) {
	n := NewNetwork(DefaultLinkCosts(), nil)
	clkA, clkB := units.NewClock(), units.NewClock()
	var got []byte
	var gotTag uint64
	NewEndpoint(2, n, clkB, units.FromMicros(50), func(src units.NodeID, p []byte, tag uint64, _ units.Time) {
		if src != 1 {
			t.Errorf("src = %d", src)
		}
		got = append([]byte(nil), p...)
		gotTag = tag
	})
	a := NewEndpoint(1, n, clkA, units.FromMicros(50), nil)
	if err := a.Send(2, []byte("ping"), 77); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" || gotTag != 77 {
		t.Errorf("got %q tag %d", got, gotTag)
	}
	if a.Retransmits() != 0 {
		t.Errorf("clean link retransmits = %d", a.Retransmits())
	}
	if clkA.Now() == 0 {
		t.Error("sender clock did not advance")
	}
}

func TestReliableDeliveryLossyLink(t *testing.T) {
	n := lossy(123, 0.4, 0)
	clkA, clkB := units.NewClock(), units.NewClock()
	var delivered [][]byte
	NewEndpoint(2, n, clkB, units.FromMicros(50), func(_ units.NodeID, p []byte, _ uint64, _ units.Time) {
		delivered = append(delivered, append([]byte(nil), p...))
	})
	a := NewEndpoint(1, n, clkA, units.FromMicros(50), nil)
	for i := 0; i < 50; i++ {
		if err := a.Send(2, []byte{byte(i)}, 0); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if len(delivered) != 50 {
		t.Fatalf("delivered %d payloads, want 50 (exactly once)", len(delivered))
	}
	for i, p := range delivered {
		if p[0] != byte(i) {
			t.Fatalf("out of order at %d: got %d", i, p[0])
		}
	}
	if a.Retransmits() == 0 {
		t.Error("40% loss produced no retransmits")
	}
}

func TestReliableDeliveryCorruptingLink(t *testing.T) {
	n := lossy(9, 0, 0.3)
	clkA, clkB := units.NewClock(), units.NewClock()
	var count int
	NewEndpoint(2, n, clkB, units.FromMicros(50), func(_ units.NodeID, p []byte, _ uint64, _ units.Time) {
		count++
		if len(p) != 64 {
			t.Errorf("corrupted payload delivered: %d bytes", len(p))
		}
	})
	a := NewEndpoint(1, n, clkA, units.FromMicros(50), nil)
	payload := make([]byte, 64)
	for i := 0; i < 30; i++ {
		if err := a.Send(2, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	if count != 30 {
		t.Errorf("delivered %d, want 30", count)
	}
}

func TestReliableLinkDead(t *testing.T) {
	n := lossy(1, 1.0, 0)
	clkA, clkB := units.NewClock(), units.NewClock()
	NewEndpoint(2, n, clkB, units.FromMicros(50), nil)
	a := NewEndpoint(1, n, clkA, units.FromMicros(50), nil)
	err := a.Send(2, []byte("x"), 0)
	if !errors.Is(err, ErrLinkDead) {
		t.Errorf("err = %v, want ErrLinkDead", err)
	}
}

func TestReliableOversizePayload(t *testing.T) {
	n := NewNetwork(DefaultLinkCosts(), nil)
	a := NewEndpoint(1, n, units.NewClock(), units.FromMicros(50), nil)
	if err := a.Send(2, make([]byte, MTU+1), 0); err == nil {
		t.Error("oversize payload accepted")
	}
}

// Property: under any drop/corruption rates below the lossy-link
// ceiling, reliable delivery preserves content, order, and exactly-once
// semantics.
func TestReliableDeliveryProperty(t *testing.T) {
	f := func(seed int64, dropRaw, corruptRaw uint8, payloads [][]byte) bool {
		// Keep combined loss low enough that exhausting the 16-attempt
		// retransmit budget is cryptographically unlikely; the
		// budget-exhaustion path has its own test.
		n := lossy(seed,
			float64(dropRaw%30)/100,    // 0-29%
			float64(corruptRaw%20)/100) // 0-19%
		clkA, clkB := units.NewClock(), units.NewClock()
		var got [][]byte
		NewEndpoint(2, n, clkB, units.FromMicros(50), func(_ units.NodeID, p []byte, _ uint64, _ units.Time) {
			got = append(got, append([]byte(nil), p...))
		})
		a := NewEndpoint(1, n, clkA, units.FromMicros(50), nil)
		var sent [][]byte
		for _, p := range payloads {
			if len(p) > MTU {
				p = p[:MTU]
			}
			if err := a.Send(2, p, 0); err != nil {
				return false // bounded loss must never exhaust 16 retries... treat as failure
			}
			sent = append(sent, p)
		}
		if len(got) != len(sent) {
			return false
		}
		for i := range sent {
			if string(got[i]) != string(sent[i]) {
				return false
			}
		}
		return true
	}
	// Fixed generator seed: the default is time-seeded, and at the top
	// of the loss range (29% drop + 19% corruption) exhausting the
	// 16-attempt budget is a ~2e-4 per-packet event — rare but not
	// rare enough for an unseeded test that draws ~1000 packets.
	if err := quick.Check(f, &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(1998)),
	}); err != nil {
		t.Error(err)
	}
}
