package fabric

import (
	"testing"

	"utlb/internal/units"
)

func TestRouteLifecycle(t *testing.T) {
	n := NewNetwork(DefaultLinkCosts(), nil)
	if n.CurrentRoute(1, 2) != 0 {
		t.Error("fresh pair should use route 0")
	}
	if n.RouteDead(1, 2) {
		t.Error("fresh route dead")
	}
	n.FailRoute(1, 2, 0)
	if !n.RouteDead(1, 2) {
		t.Error("failed route not dead")
	}
	if !n.Remap(1, 2) {
		t.Error("remap failed with a healthy alternate")
	}
	if n.CurrentRoute(1, 2) != 1 || n.RouteDead(1, 2) {
		t.Error("remap did not switch to route 1")
	}
	n.FailRoute(1, 2, 1)
	if n.Remap(1, 2) {
		t.Error("remap succeeded with all routes dead")
	}
	n.RepairRoute(1, 2, 0)
	if !n.Remap(1, 2) || n.CurrentRoute(1, 2) != 0 {
		t.Error("repair + remap did not restore route 0")
	}
	// Out-of-range routes are ignored.
	n.FailRoute(1, 2, 99)
	n.RepairRoute(1, 2, -1)
}

func TestRouteFailureIsDirectional(t *testing.T) {
	n := NewNetwork(DefaultLinkCosts(), nil)
	n.FailRoute(1, 2, 0)
	if n.RouteDead(2, 1) {
		t.Error("reverse direction affected")
	}
}

func TestTransmitDropsOnDeadRoute(t *testing.T) {
	n := NewNetwork(DefaultLinkCosts(), nil)
	delivered := 0
	n.Attach(2, func(*Packet, units.Time) { delivered++ })
	n.FailRoute(1, 2, 0)
	if _, ok := n.Transmit(&Packet{Src: 1, Dst: 2}, 0); ok {
		t.Error("packet crossed a dead route")
	}
	n.Remap(1, 2)
	if _, ok := n.Transmit(&Packet{Src: 1, Dst: 2}, 0); !ok || delivered != 1 {
		t.Error("packet lost after remap")
	}
	_, del, drop, _ := n.Stats()
	if del != 1 || drop != 1 {
		t.Errorf("stats = delivered %d dropped %d", del, drop)
	}
}

func TestEndpointRecoversAfterExternalRemap(t *testing.T) {
	n := NewNetwork(DefaultLinkCosts(), nil)
	clkA, clkB := units.NewClock(), units.NewClock()
	var got int
	NewEndpoint(2, n, clkB, units.FromMicros(50), func(units.NodeID, []byte, uint64, units.Time) { got++ })
	a := NewEndpoint(1, n, clkA, units.FromMicros(50), nil)

	n.FailRoute(1, 2, 0)
	if err := a.Send(2, []byte("x"), 0); err == nil {
		t.Fatal("send succeeded over dead route")
	}
	n.Remap(1, 2)
	if err := a.Send(2, []byte("x"), 0); err != nil {
		t.Fatalf("send after remap: %v", err)
	}
	if got != 1 {
		t.Errorf("delivered %d", got)
	}
}
