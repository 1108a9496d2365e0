// Package fabric simulates the Myrinet-style switched point-to-point
// network connecting cluster nodes: links with latency and bandwidth,
// CRC-protected packets, and the data-link retransmission protocol that
// VMMC-2 added for reliable communication (paper §4.1, "Reliable
// communication ... a retransmission protocol at data link level").
//
// The model is deterministic: its only randomised behaviour, wire drops
// and corruption, comes from the seeded fault.Injector's
// fault.SiteFabricDrop and fault.SiteFabricCorrupt points, so the same
// configuration always produces the same schedule.
package fabric

import (
	"fmt"
	"hash/crc32"

	"utlb/internal/fault"
	"utlb/internal/obs"
	"utlb/internal/units"
)

// Kind distinguishes packet types on the wire.
type Kind uint8

// Packet kinds.
const (
	KindData Kind = iota
	KindAck
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MTU is the largest payload carried by one packet. Myrinet frames are
// effectively unbounded, but the VMMC firmware breaks transfers at 4 KB
// page boundaries, so one page plus headers is the natural unit.
const MTU = units.PageSize

// HeaderBytes approximates the wire overhead of one packet (routing
// header, type, sequence number, CRC).
const HeaderBytes = 16

// Packet is one frame on the wire.
type Packet struct {
	Src, Dst units.NodeID
	Kind     Kind
	Seq      uint32
	// AckSeq is the cumulative acknowledgement carried by KindAck.
	AckSeq  uint32
	Payload []byte
	// Tag carries opaque upper-layer routing (e.g. a VMMC request id).
	Tag uint64
	crc uint32
}

// Seal computes and stores the payload CRC. Senders call it once before
// transmission.
func (p *Packet) Seal() { p.crc = crc32.ChecksumIEEE(p.Payload) }

// Intact reports whether the payload still matches its CRC.
func (p *Packet) Intact() bool { return crc32.ChecksumIEEE(p.Payload) == p.crc }

// WireBytes reports the packet's size on the wire.
func (p *Packet) WireBytes() int { return HeaderBytes + len(p.Payload) }

// Handler receives delivered packets together with their arrival time.
type Handler func(pkt *Packet, arrival units.Time)

// LinkCosts parameterise every link in the network.
type LinkCosts struct {
	// Latency is the propagation plus switch-crossing delay.
	Latency units.Time
	// PerByte is the serialisation cost, the inverse of link bandwidth.
	PerByte units.Time
}

// DefaultLinkCosts models the paper's Myrinet: 160 MB/s links
// (6.25 ns/byte) and a ~1 µs switch crossing.
func DefaultLinkCosts() LinkCosts {
	return LinkCosts{
		Latency: units.FromMicros(1.0),
		PerByte: units.FromMicros(0.00625),
	}
}

// TransferTime reports the wire time of n payload bytes.
func (c LinkCosts) TransferTime(n int) units.Time {
	return c.Latency + units.Time(n+HeaderBytes)*c.PerByte
}

// Network is the switched fabric connecting every node's NIC.
type Network struct {
	costs    LinkCosts
	handlers map[units.NodeID]Handler
	// busyUntil serialises each sender's outbound link.
	busyUntil map[units.NodeID]units.Time

	// dropFault/corruptFault are the armed wire fault points; nil —
	// the default — never fires.
	dropFault    *fault.Point
	corruptFault *fault.Point
	// tap records every drop/corruption as an instant on the sending
	// node's wire time; nil records nothing.
	tap *obs.Tap

	sent      int64
	dropped   int64
	corrupted int64
	delivered int64
}

// NewNetwork returns a fabric with the given link model whose packets
// drop and corrupt at inj's fault.SiteFabricDrop and
// fault.SiteFabricCorrupt points. A nil inj, or one that plans neither
// site, gives a lossless fabric.
func NewNetwork(costs LinkCosts, inj *fault.Injector) *Network {
	return &Network{
		costs:        costs,
		handlers:     make(map[units.NodeID]Handler),
		busyUntil:    make(map[units.NodeID]units.Time),
		dropFault:    inj.Point(fault.SiteFabricDrop),
		corruptFault: inj.Point(fault.SiteFabricCorrupt),
	}
}

// Costs returns the link model.
func (n *Network) Costs() LinkCosts { return n.costs }

// Attach registers the packet handler for node id. Attaching twice
// replaces the handler.
func (n *Network) Attach(id units.NodeID, h Handler) { n.handlers[id] = h }

// SetTap attaches the recording handle (nil detaches): wire faults are
// recorded as instants on the nic track of the sending node.
func (n *Network) SetTap(t *obs.Tap) { n.tap = t }

// Stats reports (sent, delivered, dropped, corrupted) packet counts.
func (n *Network) Stats() (sent, delivered, dropped, corrupted int64) {
	return n.sent, n.delivered, n.dropped, n.corrupted
}

// Transmit puts pkt on the wire at departure time depart. It returns
// the arrival time and whether the packet reached the destination
// handler. Corrupted packets are delivered (the receiver's CRC check
// fails); dropped packets are not.
func (n *Network) Transmit(pkt *Packet, depart units.Time) (units.Time, bool) {
	h, ok := n.handlers[pkt.Dst]
	if !ok {
		return depart, false // unknown destination: routed nowhere
	}
	n.sent++

	// Serialise on the sender's outbound link.
	start := depart
	if busy := n.busyUntil[pkt.Src]; busy > start {
		start = busy
	}
	arrival := start + n.costs.TransferTime(len(pkt.Payload))
	n.busyUntil[pkt.Src] = start + units.Time(pkt.WireBytes())*n.costs.PerByte

	if n.dropFault.Fire() {
		n.dropped++
		n.tap.InstantOn(pkt.Src, obs.KindFaultDrop, start, uint64(pkt.WireBytes()))
		return arrival, false
	}
	delivered := *pkt
	delivered.Payload = append([]byte(nil), pkt.Payload...)
	if len(delivered.Payload) > 0 && n.corruptFault.Fire() {
		// Corruption flips the first byte; any flip is equivalent
		// under the receiver's CRC check.
		delivered.Payload[0] ^= 0xff
		n.corrupted++
		n.tap.InstantOn(pkt.Src, obs.KindFaultCorrupt, start, uint64(pkt.WireBytes()))
	}
	n.delivered++
	h(&delivered, arrival)
	return arrival, true
}
