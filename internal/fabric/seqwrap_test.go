package fabric

import (
	"math"
	"testing"

	"utlb/internal/units"
)

func TestSerialNumberComparisons(t *testing.T) {
	const max = math.MaxUint32
	cases := []struct {
		a, b uint32
		ge   bool
	}{
		{0, 0, true},
		{1, 0, true},
		{0, 1, false},
		{max, max - 1, true},
		{max - 1, max, false},
		{0, max, true},  // 0 is the successor of MaxUint32
		{max, 0, false}, // ... not the other way round
		{5, max - 5, true},
	}
	for _, c := range cases {
		if got := seqGE(c.a, c.b); got != c.ge {
			t.Errorf("seqGE(%d, %d) = %v, want %v", c.a, c.b, got, c.ge)
		}
		// seqLT is the strict complement of seqGE on these windows.
		if got := seqLT(c.a, c.b); got != (!c.ge) {
			t.Errorf("seqLT(%d, %d) = %v, want %v", c.a, c.b, got, !c.ge)
		}
	}
}

// Regression for the uint32 wraparound bug: with plain ordered
// comparisons, the acked-vs-sent check misfires when the per-peer
// sequence number crosses MaxUint32 and delivery stalls. Serial-number
// arithmetic must carry a lossy stop-and-wait stream across the
// boundary without losing or duplicating a payload.
func TestReliableDeliveryAcrossSeqWraparound(t *testing.T) {
	n := lossy(5, 0.3, 0)
	clkA, clkB := units.NewClock(), units.NewClock()
	var got []byte
	b := NewEndpoint(2, n, clkB, units.FromMicros(50), func(_ units.NodeID, p []byte, _ uint64, _ units.Time) {
		got = append(got, p...)
	})
	a := NewEndpoint(1, n, clkA, units.FromMicros(50), nil)

	// White box: place both sides three packets before the wrap.
	start := uint32(math.MaxUint32 - 2)
	a.nextSeq[2] = start
	b.expect[1] = start

	var want []byte
	for i := 0; i < 8; i++ { // crosses MaxUint32 -> 0 -> ...
		payload := []byte{byte(i), byte(i + 100)}
		if err := a.Send(2, payload, 0); err != nil {
			t.Fatalf("send %d across wrap: %v", i, err)
		}
		want = append(want, payload...)
	}
	if string(got) != string(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if wantNext := start + 8; a.nextSeq[2] != wantNext { // wrapped on purpose
		t.Errorf("nextSeq = %d, want %d", a.nextSeq[2], wantNext)
	}
}
