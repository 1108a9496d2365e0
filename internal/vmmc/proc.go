package vmmc

import (
	"fmt"

	"utlb/internal/core"
	"utlb/internal/hostos"
	"utlb/internal/units"
)

// Proc is one process' handle on the VMMC system: the user-level
// library of Figure 6. All operations are issued at user level; the
// only kernel involvement is the pin ioctl inside a UTLB check miss.
type Proc struct {
	node *Node
	proc *hostos.Process
	lib  *core.Lib
}

// PID reports the process id.
func (p *Proc) PID() units.ProcID { return p.proc.PID() }

// Node returns the process' node.
func (p *Proc) Node() *Node { return p.node }

// Lib exposes the process' UTLB library (for statistics).
func (p *Proc) Lib() *core.Lib { return p.lib }

// Write stores data into the process' virtual memory (application
// compute, not communication — no UTLB involvement).
func (p *Proc) Write(va units.VAddr, data []byte) error {
	space, ok := p.proc.Space().(interface {
		WriteAt(units.VAddr, []byte) error
	})
	if !ok {
		return fmt.Errorf("vmmc: address space does not support writes")
	}
	return space.WriteAt(va, data)
}

// Read loads from the process' virtual memory.
func (p *Proc) Read(va units.VAddr, n int) ([]byte, error) {
	space, ok := p.proc.Space().(interface {
		ReadAt(units.VAddr, int) ([]byte, error)
	})
	if !ok {
		return nil, fmt.Errorf("vmmc: address space does not support reads")
	}
	return space.ReadAt(va, n)
}

// Export publishes [va, va+nbytes) as a receive buffer and returns its
// id. Exporting pins the buffer and installs its translations — "this
// approach requires receivers to pin and export receive buffers before
// the data is transferred" (§2) — and locks it against eviction for
// its lifetime.
func (p *Proc) Export(va units.VAddr, nbytes int) (BufferID, error) {
	if nbytes <= 0 {
		return 0, fmt.Errorf("vmmc: export of %d bytes", nbytes)
	}
	p.node.tap.Begin()
	defer p.node.tap.Clear()
	if err := p.lib.Lookup(va, nbytes); err != nil {
		return 0, fmt.Errorf("vmmc: pinning export: %w", err)
	}
	p.lib.Lock(va, nbytes)
	id := p.node.nextBuf
	p.node.nextBuf++
	p.node.exports[id] = &export{owner: p.PID(), va: va, nbytes: nbytes}
	return id, nil
}

// Unexport withdraws a receive buffer, unlocking its pages.
func (p *Proc) Unexport(id BufferID) error {
	exp, ok := p.node.exports[id]
	if !ok || exp.owner != p.PID() {
		return fmt.Errorf("vmmc: pid %d does not own export %d", p.PID(), id)
	}
	p.lib.Unlock(exp.va, exp.nbytes)
	if exp.redirected {
		p.lib.Unlock(exp.redirect, exp.nbytes)
	}
	delete(p.node.exports, id)
	return nil
}

// Redirect points incoming data for export id at a different local
// buffer — VMMC-2's transfer-redirection (§4.1), the zero-copy enabler
// for higher-level protocols. The new landing zone is pinned and
// locked like the original.
func (p *Proc) Redirect(id BufferID, va units.VAddr) error {
	exp, ok := p.node.exports[id]
	if !ok || exp.owner != p.PID() {
		return fmt.Errorf("vmmc: pid %d does not own export %d", p.PID(), id)
	}
	p.node.tap.Begin()
	defer p.node.tap.Clear()
	if err := p.lib.Lookup(va, exp.nbytes); err != nil {
		return fmt.Errorf("vmmc: pinning redirect target: %w", err)
	}
	if exp.redirected {
		p.lib.Unlock(exp.redirect, exp.nbytes)
	}
	p.lib.Lock(va, exp.nbytes)
	exp.redirect = va
	exp.redirected = true
	return nil
}

// Imported is a handle on a remote receive buffer.
type Imported struct {
	Node   units.NodeID
	Buf    BufferID
	NBytes int
}

// Import gains access to an exported buffer on a remote node. The
// exchange rides the control plane (a small request/response over the
// fabric); the returned handle is what Send and Fetch target.
func (p *Proc) Import(node units.NodeID, id BufferID) (*Imported, error) {
	remote := p.node.cluster.Node(node)
	if remote == nil {
		return nil, fmt.Errorf("vmmc: no node %d", node)
	}
	exp, ok := remote.exports[id]
	if !ok {
		return nil, fmt.Errorf("vmmc: node %d has no export %d", node, id)
	}
	// Control round trip: two header-only packets' worth of time.
	rtt := 2 * p.node.cluster.net.Costs().TransferTime(0)
	p.node.nic.Clock().Advance(rtt)
	return &Imported{Node: node, Buf: id, NBytes: exp.nbytes}, nil
}

// Send is VMMC's remote store: transfer [va, va+nbytes) of this
// process' memory into the imported buffer at offset. The local
// buffer is translated through the UTLB (pinning on first use), read
// out of host memory by NIC DMA, carried by the reliable link layer,
// and deposited directly into the receiver's buffer — no copies on
// either host.
func (p *Proc) Send(dst *Imported, offset int, va units.VAddr, nbytes int) error {
	return p.post(p.node.firmwareSend, dst, offset, va, nbytes)
}

// Fetch is VMMC-2's remote fetch: read [offset, offset+nbytes) of the
// imported buffer into local memory at va. The local landing pages
// are pinned through the UTLB exactly like send buffers — the receive
// path integration that Hierarchical-UTLB makes natural (§3.3).
func (p *Proc) Fetch(src *Imported, offset int, va units.VAddr, nbytes int) error {
	return p.post(p.node.firmwareFetch, src, offset, va, nbytes)
}

// post runs one command on [va, va+nbytes) against b at offset as
// Figure 2 does: user-level lookup (pin on check miss), then post the
// request to the command buffer, which the MCP polls once and executes
// with firmware. The buffer stays locked until the firmware is done.
func (p *Proc) post(firmware func(*Proc, *Imported, int, units.VAddr, int) error,
	b *Imported, offset int, va units.VAddr, nbytes int) error {
	if err := checkRange(b, offset, nbytes); err != nil {
		return err
	}
	if nbytes == 0 {
		return nil
	}
	p.node.tap.Begin()
	defer p.node.tap.Clear()
	if err := p.lib.Lookup(va, nbytes); err != nil {
		return err
	}
	p.lib.Lock(va, nbytes)
	defer p.lib.Unlock(va, nbytes)
	p.node.nic.ChargePoll()
	return firmware(p, b, offset, va, nbytes)
}

// Received reports how many bytes and messages have landed in export
// id (receiver-side polling, replacing VMMC notifications).
func (p *Proc) Received(id BufferID) (bytes, deposits int64, err error) {
	exp, ok := p.node.exports[id]
	if !ok || exp.owner != p.PID() {
		return 0, 0, fmt.Errorf("vmmc: pid %d does not own export %d", p.PID(), id)
	}
	return exp.received, exp.deposits, nil
}

func checkRange(b *Imported, offset, nbytes int) error {
	if b == nil {
		return fmt.Errorf("vmmc: nil buffer handle")
	}
	if offset < 0 || nbytes < 0 || offset+nbytes > b.NBytes {
		return fmt.Errorf("vmmc: range [%d,+%d) outside buffer of %d bytes",
			offset, nbytes, b.NBytes)
	}
	return nil
}
