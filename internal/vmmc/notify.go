package vmmc

import (
	"errors"
	"fmt"

	"utlb/internal/fabric"
	"utlb/internal/obs"
	"utlb/internal/units"
)

// Notification reports one deposit into an exported buffer. VMMC
// offers arrival notifications so receivers need not poll buffer
// contents; the receiving process drains them with PollNotification.
type Notification struct {
	// Buf is the export the data landed in.
	Buf BufferID
	// From is the sending node.
	From units.NodeID
	// Offset and Bytes locate the deposit within the buffer.
	Offset int
	Bytes  int
	// Arrival is the NIC timestamp of the deposit.
	Arrival units.Time
}

// maxPendingNotifications bounds each process' queue; past it the
// oldest notifications are dropped (receivers that never poll must not
// leak NIC memory — the data itself is already in their buffer).
const maxPendingNotifications = 1024

// EnableNotifications turns on arrival notifications for an export the
// process owns.
func (p *Proc) EnableNotifications(id BufferID) error {
	exp, ok := p.node.exports[id]
	if !ok || exp.owner != p.PID() {
		return fmt.Errorf("vmmc: pid %d does not own export %d", p.PID(), id)
	}
	exp.notify = true
	return nil
}

// PollNotification pops the oldest pending notification, if any.
func (p *Proc) PollNotification() (Notification, bool) {
	if len(p.notifications) == 0 {
		return Notification{}, false
	}
	n := p.notifications[0]
	p.notifications = p.notifications[1:]
	return n, true
}

// PendingNotifications reports the queue depth.
func (p *Proc) PendingNotifications() int { return len(p.notifications) }

func (n *Node) notifyOwner(exp *export, buf BufferID, from units.NodeID, offset, nbytes int, arrival units.Time) {
	if !exp.notify {
		return
	}
	owner, ok := n.procs[exp.owner]
	if !ok {
		return
	}
	if len(owner.notifications) >= maxPendingNotifications {
		owner.notifications = owner.notifications[1:]
	}
	owner.notifications = append(owner.notifications, Notification{
		Buf: buf, From: from, Offset: offset, Bytes: nbytes, Arrival: arrival,
	})
	n.tap.Instant(obs.KindNotify, n.nic.Clock().Now(), exp.owner, uint64(nbytes), 0)
}

// RemapCost is the simulated time the mapper needs to compute and
// distribute a replacement route after a link or port failure. Route
// recomputation on Myrinet-class networks takes milliseconds.
const RemapCost = 2 * units.Millisecond

// Remaps reports how many node-remapping procedures this node has run.
func (n *Node) Remaps() int64 { return n.remaps }

// sendRetryLimit bounds firmware-level delivery attempts after the
// first: each retry is a full link-layer Send (itself up to
// RetransmitLimit wire tries) preceded by a remap and an exponential
// backoff, so a transiently dead route gets several chances before the
// command fails with ErrLinkDead.
const sendRetryLimit = 3

// sendReliable carries one packet with link-failure recovery layered
// over the retransmission protocol: when the link layer declares the
// route dead, the node invokes the remapping procedure (§4.1), backs
// off exponentially (the mapper's new route must settle), and retries
// on the surviving route, up to sendRetryLimit times. A final failure
// returns an error wrapping fabric.ErrLinkDead — the caller degrades,
// it does not crash.
func (n *Node) sendReliable(dst units.NodeID, payload []byte, tag uint64) error {
	err := n.ep.Send(dst, payload, tag)
	for attempt := 1; attempt <= sendRetryLimit && errors.Is(err, fabric.ErrLinkDead); attempt++ {
		// Route failure: remap, back off, retry.
		n.nic.Clock().Advance(RemapCost << (attempt - 1))
		n.remaps++
		n.tap.Instant(obs.KindSendRetry, n.nic.Clock().Now(), 0, uint64(attempt), 0)
		if !n.cluster.net.Remap(n.id, dst) {
			n.tap.Instant(obs.KindLinkDead, n.nic.Clock().Now(), 0, uint64(len(payload)), 0)
			return fmt.Errorf("vmmc: node %d unreachable, no surviving route: %w", dst, err)
		}
		err = n.ep.Send(dst, payload, tag)
	}
	if errors.Is(err, fabric.ErrLinkDead) {
		n.tap.Instant(obs.KindLinkDead, n.nic.Clock().Now(), 0, uint64(len(payload)), 0)
		return fmt.Errorf("vmmc: link to node %d dead after %d remap retries: %w",
			dst, sendRetryLimit, err)
	}
	return err
}
