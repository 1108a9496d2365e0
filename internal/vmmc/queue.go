package vmmc

import (
	"errors"
	"fmt"
	"slices"

	"utlb/internal/units"
)

// This file implements the command-post architecture of Figure 6: the
// driver maps a command buffer in NIC SRAM into each process; the
// user-level library posts requests to it; "the MCP polls user
// requests from each command buffer and processes them in the order
// that they are received."
//
// Posting is asynchronous: PostSend returns once the descriptor is in
// the ring, with the buffer's pages pinned and locked — the §3.1
// obligation ("the user-level library must only select virtual pages
// that will not be involved in any outstanding send requests") holds
// for as long as the command is queued. PollAll runs the firmware
// loop; Send remains the synchronous convenience wrapper.

// ErrQueueFull is returned when a process' command ring has no free
// slot; the caller polls (or lets the MCP run) and retries.
var ErrQueueFull = errors.New("vmmc: command queue full")

// queueCapacity is the number of descriptors one command buffer
// holds: a 4 KB SRAM buffer of 64-byte descriptors.
const queueCapacity = commandBufBytes / 64

// command is one posted request descriptor. xfer is the transfer id
// allocated at post time, restored when the firmware executes the
// command so the send's whole chain shares one id.
type command struct {
	proc   *Proc
	dst    *Imported
	offset int
	va     units.VAddr
	nbytes int
	xfer   uint64
}

// PostSend enqueues a remote store without executing it. The local
// buffer is translated/pinned through the UTLB and stays locked until
// the firmware completes the command.
func (p *Proc) PostSend(dst *Imported, offset int, va units.VAddr, nbytes int) error {
	if err := checkRange(dst, offset, nbytes); err != nil {
		return err
	}
	if nbytes == 0 {
		return nil
	}
	if p.node.cmdq == nil {
		p.node.cmdq = make(map[units.ProcID][]command)
	}
	if len(p.node.cmdq[p.PID()]) >= queueCapacity {
		return ErrQueueFull
	}
	id := p.node.tap.Begin()
	defer p.node.tap.Clear()
	if err := p.lib.Lookup(va, nbytes); err != nil {
		return err
	}
	p.lib.Lock(va, nbytes)
	p.node.cmdq[p.PID()] = append(p.node.cmdq[p.PID()],
		command{proc: p, dst: dst, offset: offset, va: va, nbytes: nbytes, xfer: id})
	return nil
}

// Queued reports how many commands the process has outstanding.
func (p *Proc) Queued() int { return len(p.node.cmdq[p.PID()]) }

// PollAll runs the MCP polling loop until every command buffer is
// empty: each pass visits the processes round-robin (by ascending PID)
// and executes one command from each non-empty ring, charging the
// doorbell poll per visit. Within one process, commands execute in
// post order.
//
// Failures degrade per command: one process' dead link must not wedge
// the MCP, so a failed command is dropped (its pages unlocked) and the
// loop keeps draining the other rings. The joined errors are returned
// once every ring is empty.
func (n *Node) PollAll() error {
	var errs []error
	for {
		progress := false
		for _, pid := range n.queuedPIDs() {
			q := n.cmdq[pid]
			if len(q) == 0 {
				continue
			}
			n.nic.ChargePoll()
			cmd := q[0]
			n.cmdq[pid] = q[1:]
			n.tap.Set(cmd.xfer)
			err := n.firmwareSend(pid, cmd.dst, cmd.offset, cmd.va, cmd.nbytes)
			n.tap.Clear()
			cmd.proc.lib.Unlock(cmd.va, cmd.nbytes)
			if err != nil {
				errs = append(errs, fmt.Errorf("vmmc: executing queued send for pid %d: %w", pid, err))
			}
			progress = true
		}
		if !progress {
			return errors.Join(errs...)
		}
	}
}

// queuedPIDs lists processes with command buffers, ascending — the
// MCP's fixed polling order.
func (n *Node) queuedPIDs() []units.ProcID {
	pids := make([]units.ProcID, 0, len(n.cmdq))
	for pid := range n.cmdq {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	return pids
}
