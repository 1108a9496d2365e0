package vmmc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"utlb/internal/fabric"
	"utlb/internal/obs"
	"utlb/internal/units"
)

// ErrBufferUnpinned reports that a send's source page lost its pin
// before the firmware read it. VMMC requires senders to keep buffers
// pinned for the life of the transfer; under a pin quota, a Lookup
// whose record needs more pages than the quota can evict the record's
// own pages. The message is lost, nothing else is harmed — callers may
// treat it like a dead link for that one command.
var ErrBufferUnpinned = errors.New("vmmc: buffer page unpinned mid-transfer")

// This file is the Myrinet Control Program (MCP): the firmware side of
// VMMC. It executes posted send/fetch commands — translating each
// virtual page through the UTLB, DMAing between host memory and the
// wire — and handles incoming packets, depositing data directly into
// exported (or redirected) receive buffers. The firmware breaks
// transfers at 4 KB page boundaries and translates one page at a time,
// exactly as the paper's implementation note describes.

// Packet tag layout: kind in the top byte; the remaining 56 bits are
// kind-specific.
const (
	tagData      = uint64(1) << 56 // | bufID(24) | offset(32)
	tagFetchReq  = uint64(2) << 56 // payload carries the request
	tagFetchResp = uint64(3) << 56 // | reqID(24) | offset(32)
	tagKindMask  = uint64(0xff) << 56
)

func dataTag(buf BufferID, offset int) uint64 {
	return tagData | uint64(buf&0xffffff)<<32 | uint64(uint32(offset))
}

func respTag(reqID uint32, offset int) uint64 {
	return tagFetchResp | uint64(reqID&0xffffff)<<32 | uint64(uint32(offset))
}

// firmwareSend executes a posted send command: walk the local buffer
// page by page, translate through the Shared UTLB-Cache, DMA each
// piece out of host memory, and hand it to the reliable link layer.
func (n *Node) firmwareSend(p *Proc, dst *Imported, offset int, va units.VAddr, nbytes int) error {
	pid := p.PID()
	done := 0
	for done < nbytes {
		vpn := (va + units.VAddr(done)).PageOf()
		pageOff := int((va + units.VAddr(done)).Offset())
		chunk := units.PageSize - pageOff
		if chunk > nbytes-done {
			chunk = nbytes - done
		}
		pfn, info := n.tr.Translate(pid, vpn)
		if info.Garbage {
			// The user library pinned the buffer before posting; a
			// record larger than the pin quota can still have lost
			// its own first pages to eviction.
			return fmt.Errorf("vmmc: send page %#x of pid %d: %w", vpn, pid, ErrBufferUnpinned)
		}
		payload := n.nic.Bus().ReadData(pfn.Addr()+units.PAddr(pageOff), chunk)
		if err := n.sendReliable(dst.Node, payload, dataTag(dst.Buf, offset+done)); err != nil {
			return fmt.Errorf("vmmc: sending page %#x: %w", vpn, err)
		}
		n.pagesSent++
		n.tap.Instant(obs.KindSend, n.nic.Clock().Now(), pid, uint64(chunk), 0)
		done += chunk
	}
	return nil
}

// RemapCost is the mapper's backoff: the simulated time VMMC-2's node
// remapping procedure (§4.1) needs to compute and distribute a
// replacement route after a link or port failure, charged before each
// firmware-level re-send and doubled per attempt. Route recomputation
// on Myrinet-class networks takes milliseconds.
const RemapCost = 2 * units.Millisecond

// sendRetryLimit bounds firmware-level delivery attempts after the
// first: each retry is a full link-layer Send (itself up to
// RetransmitLimit wire tries) preceded by an exponential backoff, so a
// transiently dead link gets several chances before the command fails
// with ErrLinkDead.
const sendRetryLimit = 3

// sendReliable carries one packet with link-failure recovery layered
// over the retransmission protocol: when the link layer declares the
// link dead, the node backs off exponentially (the mapper's remapping
// time, §4.1) and retries, up to sendRetryLimit times. A final failure
// returns an error wrapping fabric.ErrLinkDead — the caller degrades,
// it does not crash.
func (n *Node) sendReliable(dst units.NodeID, payload []byte, tag uint64) error {
	err := n.ep.Send(dst, payload, tag)
	for attempt := 1; attempt <= sendRetryLimit && errors.Is(err, fabric.ErrLinkDead); attempt++ {
		n.nic.Clock().Charge(units.RowRemap, 1<<(attempt-1), RemapCost)
		n.tap.Instant(obs.KindSendRetry, n.nic.Clock().Now(), 0, uint64(attempt), 0)
		err = n.ep.Send(dst, payload, tag)
	}
	if errors.Is(err, fabric.ErrLinkDead) {
		n.tap.Instant(obs.KindLinkDead, n.nic.Clock().Now(), 0, uint64(len(payload)), 0)
		return fmt.Errorf("vmmc: link to node %d dead after %d remap retries: %w",
			dst, sendRetryLimit, err)
	}
	return err
}

// fetchReqPayload encodes a fetch request on the wire.
func fetchReqPayload(buf BufferID, offset, nbytes int, reqID uint32) []byte {
	p := make([]byte, 16)
	binary.LittleEndian.PutUint32(p[0:], uint32(buf))
	binary.LittleEndian.PutUint32(p[4:], uint32(offset))
	binary.LittleEndian.PutUint32(p[8:], uint32(nbytes))
	binary.LittleEndian.PutUint32(p[12:], reqID)
	return p
}

// firmwareFetch executes a posted fetch command: register the pending
// fetch, send the request, and rely on the synchronous fabric to have
// delivered the response packets (and deposited the data) by the time
// the request exchange completes.
func (n *Node) firmwareFetch(p *Proc, src *Imported, offset int, va units.VAddr, nbytes int) error {
	reqID := n.nextFetchID
	n.nextFetchID++
	st := &fetchState{proc: p, va: va, nbytes: nbytes}
	n.pendingFetch[reqID] = st
	defer delete(n.pendingFetch, reqID)

	if err := n.sendReliable(src.Node, fetchReqPayload(src.Buf, offset, nbytes, reqID), tagFetchReq); err != nil {
		return fmt.Errorf("vmmc: fetch request: %w", err)
	}
	if !st.done {
		return fmt.Errorf("vmmc: fetch %d incomplete after request exchange", reqID)
	}
	return nil
}

// receive is the firmware's packet handler, registered with the
// reliable endpoint. It runs for in-order, CRC-verified payloads.
func (n *Node) receive(src units.NodeID, payload []byte, tag uint64, _ units.Time) {
	switch tag & tagKindMask {
	case tagData:
		buf := BufferID(tag >> 32 & 0xffffff)
		offset := int(uint32(tag))
		n.deposit(buf, offset, payload)
	case tagFetchReq:
		if len(payload) != 16 {
			return // malformed request: drop
		}
		buf := BufferID(binary.LittleEndian.Uint32(payload[0:]))
		offset := int(binary.LittleEndian.Uint32(payload[4:]))
		nbytes := int(binary.LittleEndian.Uint32(payload[8:]))
		reqID := binary.LittleEndian.Uint32(payload[12:])
		n.serveFetch(src, buf, offset, nbytes, reqID)
	case tagFetchResp:
		reqID := uint32(tag >> 32 & 0xffffff)
		offset := int(uint32(tag))
		st, ok := n.pendingFetch[reqID]
		if !ok {
			return // stale response: drop
		}
		n.depositLocal(st, offset, payload)
	}
}

// deposit lands an incoming remote store in an exported buffer,
// honouring transfer-redirection and the buffer bounds (the NIC is the
// protection boundary: out-of-range deposits are discarded).
func (n *Node) deposit(buf BufferID, offset int, payload []byte) {
	exp, ok := n.exports[buf]
	if !ok || offset < 0 || offset+len(payload) > exp.nbytes {
		return // unknown buffer or out of bounds: protection drop
	}
	target := exp.va
	if exp.redirected {
		target = exp.redirect
	}
	n.writeUser(exp.owner, target+units.VAddr(offset), payload)
	n.pagesReceived++
	exp.received += int64(len(payload))
	exp.deposits++
	n.tap.Instant(obs.KindRecv, n.nic.Clock().Now(), exp.owner, uint64(len(payload)), 0)
}

// serveFetch reads the requested range out of the exported buffer and
// streams it back in MTU-sized pieces.
func (n *Node) serveFetch(requester units.NodeID, buf BufferID, offset, nbytes int, reqID uint32) {
	exp, ok := n.exports[buf]
	if !ok || offset < 0 || nbytes < 0 || offset+nbytes > exp.nbytes {
		return // protection drop; the requester's fetch reports failure
	}
	done := 0
	for done < nbytes {
		va := exp.va + units.VAddr(offset+done)
		pageOff := int(va.Offset())
		chunk := units.PageSize - pageOff
		if chunk > nbytes-done {
			chunk = nbytes - done
		}
		pfn, info := n.tr.Translate(exp.owner, va.PageOf())
		if info.Garbage {
			return // exported page lost its pin: abort service
		}
		payload := n.nic.Bus().ReadData(pfn.Addr()+units.PAddr(pageOff), chunk)
		if err := n.sendReliable(requester, payload, respTag(reqID, done)); err != nil {
			return
		}
		n.pagesSent++
		done += chunk
	}
}

// depositLocal lands a fetch response in the requester's local buffer.
func (n *Node) depositLocal(st *fetchState, offset int, payload []byte) {
	if offset < 0 || offset+len(payload) > st.nbytes {
		return
	}
	n.writeUser(st.proc.PID(), st.va+units.VAddr(offset), payload)
	n.pagesReceived++
	n.tap.Instant(obs.KindRecv, n.nic.Clock().Now(), st.proc.PID(), uint64(len(payload)), 0)
	st.nreceived += len(payload)
	if st.nreceived >= st.nbytes {
		st.done = true
	}
}

// writeUser DMAs payload into a process' memory page by page through
// the UTLB — the direct data path: no system buffer, no host copy.
func (n *Node) writeUser(pid units.ProcID, va units.VAddr, payload []byte) {
	for len(payload) > 0 {
		pageOff := int(va.Offset())
		chunk := units.PageSize - pageOff
		if chunk > len(payload) {
			chunk = len(payload)
		}
		// An unpinned landing page translates to the garbage frame and
		// the write lands there — "no harm is done to the system or
		// other applications" (§4.2).
		pfn, _ := n.tr.Translate(pid, va.PageOf())
		n.nic.Bus().WriteData(pfn.Addr()+units.PAddr(pageOff), payload[:chunk])
		va += units.VAddr(chunk)
		payload = payload[chunk:]
	}
}
