package fabric

import (
	"fmt"

	"utlb/internal/units"
)

// RetransmitLimit bounds attempts per packet before the link is
// declared dead; vmmc's sendReliable then backs off by RemapCost,
// doubled per attempt, and retries the send.
const RetransmitLimit = 16

// ErrLinkDead is returned when a packet could not be delivered within
// RetransmitLimit attempts.
var ErrLinkDead = fmt.Errorf("fabric: retransmit limit exceeded, link presumed dead")

// DataHandler consumes in-order, deduplicated payloads at a reliable
// endpoint.
type DataHandler func(src units.NodeID, payload []byte, tag uint64, arrival units.Time)

// Sequence numbers are 32-bit and wrap; comparisons use serial-number
// arithmetic (RFC 1982 with window 2^31): a and b compare correctly
// as long as their true distance stays under 2^31, which stop-and-wait
// guarantees — at most one unacknowledged sequence per peer.

// seqGE reports a >= b modulo 2^32.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

// seqLT reports a < b modulo 2^32.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// Endpoint is one node's reliable data-link layer: a stop-and-wait
// retransmission protocol with cumulative per-peer sequence numbers,
// mirroring the link-level protocol between VMMC-2 network interfaces.
// Stop-and-wait is sufficient because the firmware processes one
// command at a time; the window of the original protocol is not
// modelled.
type Endpoint struct {
	id    units.NodeID
	net   *Network
	clock *units.Clock
	// RetransmitTimeout is charged to the clock on every lost packet.
	timeout units.Time

	nextSeq map[units.NodeID]uint32 // next sequence to send, per peer
	expect  map[units.NodeID]uint32 // next sequence expected, per peer
	handler DataHandler

	// lastAck records, per peer, the ack observed by the most recent
	// inbound data packet's sender (set when our ack is delivered).
	acked map[units.NodeID]uint32

	retransmits int64
}

// NewEndpoint attaches a reliable endpoint for node id to the network.
// Its handler is registered with the fabric immediately.
func NewEndpoint(id units.NodeID, net *Network, clock *units.Clock, timeout units.Time, h DataHandler) *Endpoint {
	e := &Endpoint{
		id:      id,
		net:     net,
		clock:   clock,
		timeout: timeout,
		nextSeq: make(map[units.NodeID]uint32),
		expect:  make(map[units.NodeID]uint32),
		acked:   make(map[units.NodeID]uint32),
		handler: h,
	}
	net.Attach(id, e.receive)
	return e
}

// ID reports the endpoint's node id.
func (e *Endpoint) ID() units.NodeID { return e.id }

// Retransmits reports how many retransmissions this endpoint has sent.
func (e *Endpoint) Retransmits() int64 { return e.retransmits }

// Send reliably delivers payload to dst, blocking (in simulated time)
// until the packet is acknowledged. The clock is advanced across
// transmission, ack latency, and any retransmission timeouts. tag is
// handed to the remote DataHandler untouched.
func (e *Endpoint) Send(dst units.NodeID, payload []byte, tag uint64) error {
	if len(payload) > MTU {
		return fmt.Errorf("fabric: payload %d exceeds MTU %d", len(payload), MTU)
	}
	seq := e.nextSeq[dst]
	pkt := &Packet{Src: e.id, Dst: dst, Kind: KindData, Seq: seq, Payload: payload, Tag: tag}
	pkt.Seal()

	for attempt := 0; attempt < RetransmitLimit; attempt++ {
		if attempt > 0 {
			e.retransmits++
			e.clock.Charge(units.RowTimeout, 1, e.timeout)
		}
		arrival, ok := e.net.Transmit(pkt, e.clock.Now())
		if !ok {
			continue // dropped on the wire; timeout and retry
		}
		e.clock.AdvanceTo(arrival)
		// The receive path runs synchronously during Transmit; if the
		// data packet survived its CRC check the receiver has sent an
		// ack back, updating e.acked via our own receive handler.
		if acked, ok := e.acked[dst]; ok && seqGE(acked, seq) {
			e.nextSeq[dst] = seq + 1
			return nil
		}
		// Data arrived corrupted (receiver discarded it) or the ack
		// was lost; either way, time out and retransmit.
	}
	return fmt.Errorf("%w: %s -> %d seq %d", ErrLinkDead, "node", dst, seq)
}

// receive is the fabric-facing packet handler.
func (e *Endpoint) receive(pkt *Packet, arrival units.Time) {
	e.clock.AdvanceTo(arrival)
	switch pkt.Kind {
	case KindAck:
		if cur, ok := e.acked[pkt.Src]; !ok || seqLT(cur, pkt.AckSeq) {
			e.acked[pkt.Src] = pkt.AckSeq
		}
	case KindData:
		if !pkt.Intact() {
			// Corrupted on the wire: silently discard; the sender's
			// timeout drives the retransmission.
			return
		}
		expected := e.expect[pkt.Src]
		switch {
		case pkt.Seq == expected:
			e.expect[pkt.Src] = expected + 1
			if e.handler != nil {
				e.handler(pkt.Src, pkt.Payload, pkt.Tag, arrival)
			}
		case seqLT(pkt.Seq, expected):
			// A retransmission of already-delivered data: suppress it,
			// but ack it again below.
		default:
			// Out of order is impossible under stop-and-wait with a
			// synchronous fabric; drop and let retransmission recover.
			return
		}
		// (Re-)acknowledge everything up to expect-1, covering both
		// fresh data and duplicates whose ack was lost.
		ack := &Packet{Src: e.id, Dst: pkt.Src, Kind: KindAck, AckSeq: e.expect[pkt.Src] - 1}
		ack.Seal()
		e.net.Transmit(ack, e.clock.Now())
	}
}
