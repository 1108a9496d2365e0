// Package vmmc implements the Virtual Memory-Mapped Communication
// model the UTLB was built for (§4): protected direct data transfer
// between the virtual address spaces of processes on different nodes.
// A receive buffer is exported by its owner and imported by remote
// processes; the basic operation is remote store (send), extended in
// VMMC-2 with remote fetch and transfer redirection — the two features
// the paper says "the UTLB mechanism empowers".
//
// The stack mirrors Figure 6: a user-level library (Proc), a device
// driver (core.Driver), and the Myrinet Control Program firmware loop
// (mcp.go) that polls per-process command buffers, translates virtual
// pages through the UTLB, and moves data with DMA over the simulated
// I/O bus and network fabric.
package vmmc

import (
	"fmt"

	"utlb/internal/bus"
	"utlb/internal/core"
	"utlb/internal/fabric"
	"utlb/internal/fault"
	"utlb/internal/hostos"
	"utlb/internal/nicsim"
	"utlb/internal/obs"
	"utlb/internal/tlbcache"
	"utlb/internal/units"
	"utlb/internal/vm"
)

// BufferID names an exported receive buffer, unique per node.
type BufferID uint32

// Options configure a cluster.
type Options struct {
	// Nodes is the cluster size.
	Nodes int
	// HostMemBytes is per-node physical memory (default 64 MB).
	HostMemBytes int64
	// CacheEntries is the Shared UTLB-Cache size (default 8 K).
	CacheEntries int
	// NoIndexOffset disables the per-process cache index offsetting of
	// §3.2 (the "direct-nohash" configuration, for ablation).
	NoIndexOffset bool
	// Injector, when non-nil, arms the deterministic fault points
	// (fault.Site*) across every layer of the cluster: host pin
	// failures, cache-fill DMA errors, and wire drop/corruption. One
	// injector serves the whole cluster (cluster execution is
	// single-goroutine); unplanned sites stay nil and cost nothing.
	Injector *fault.Injector
	// Recorder, when non-nil, receives the event timeline of every node
	// (cache traffic, DMA, pins, firmware send/recv).
	// Cluster construction is single-goroutine per cluster, so one
	// recorder serves all nodes; events are tagged with their NodeID.
	Recorder obs.Recorder
}

// Every node has Myrinet's 1 MB of NIC SRAM and retransmits a lost
// packet after 50 µs.
const (
	nicSRAMBytes      = units.MB
	retransmitTimeout = 50 * units.Microsecond
)

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 2
	}
	if o.HostMemBytes == 0 {
		o.HostMemBytes = 64 * units.MB
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 8192
	}
	return o
}

// Cluster is a simulated Myrinet PC cluster running VMMC.
type Cluster struct {
	opts  Options
	net   *fabric.Network
	nodes []*Node

	// tap is the cluster's recording handle, nil when not recording.
	// Every node's handle is a sibling of it, so the cluster shares one
	// transfer cursor: the simulation is synchronous, and the id a
	// sender Begins flows through the fabric callback into the
	// receiver's deposit events, letting analysis stitch one
	// transfer's chain across nodes.
	tap *obs.Tap
}

// NewCluster builds a cluster of opts.Nodes fully wired nodes.
func NewCluster(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	c := &Cluster{
		opts: opts,
		net:  fabric.NewNetwork(fabric.DefaultLinkCosts(), opts.Injector),
	}
	c.tap = obs.NewTap(opts.Recorder, 0)
	c.net.SetTap(c.tap)
	for i := 0; i < opts.Nodes; i++ {
		n, err := newNode(c, units.NodeID(i), opts)
		if err != nil {
			return nil, fmt.Errorf("vmmc: building node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Node returns node id, or nil when out of range.
func (c *Cluster) Node(id units.NodeID) *Node {
	if int(id) >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// Nodes reports the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Network exposes the fabric (for fault statistics in tests).
func (c *Cluster) Network() *fabric.Network { return c.net }

// Node is one cluster machine: host + NIC + driver + firmware state.
type Node struct {
	cluster *Cluster
	id      units.NodeID
	host    *hostos.Host
	nic     *nicsim.NIC
	drv     *core.Driver
	tr      *core.Translator
	ep      *fabric.Endpoint

	procs   map[units.ProcID]*Proc
	exports map[BufferID]*export
	nextBuf BufferID

	// pending remote fetches awaiting their reply, by request id.
	pendingFetch map[uint32]*fetchState
	nextFetchID  uint32

	// firmware counters
	pagesSent     int64
	pagesReceived int64

	// tap is where every layer of the node records, the firmware's
	// send and recv events on the vmmc track among them; nil
	// when not recording.
	tap *obs.Tap
}

type export struct {
	owner  units.ProcID
	va     units.VAddr
	nbytes int
	// redirect, when set, replaces va as the landing zone (§4.1
	// transfer-redirection).
	redirect   units.VAddr
	redirected bool
	received   int64 // cumulative bytes landed
	deposits   int64 // messages landed
}

type fetchState struct {
	proc      *Proc
	va        units.VAddr
	nbytes    int
	nreceived int
	done      bool
}

func newNode(c *Cluster, id units.NodeID, opts Options) (*Node, error) {
	host := hostos.New(id, opts.HostMemBytes, hostos.DefaultCosts())
	nicClock := units.NewClock()
	ioBus := bus.New(host.Memory(), nicClock, bus.DefaultCosts())
	nic := nicsim.New(id, nicSRAMBytes, nicClock, ioBus, nicsim.DefaultCosts())
	// Arm the per-layer fault points (nil when opts.Injector is nil or
	// the site is unplanned — the zero-overhead default).
	host.SetPinFault(opts.Injector.Point(fault.SiteHostPin))
	drv, err := core.NewDriver(host, nic, tlbcache.Config{
		Entries: opts.CacheEntries, Ways: 1, IndexOffset: !opts.NoIndexOffset,
	})
	if err != nil {
		return nil, err
	}
	drv.Cache().SetFillFault(opts.Injector.Point(fault.SiteCacheFill))
	tap := c.tap.ForNode(id)
	host.SetTap(tap)
	ioBus.SetTap(tap)
	drv.SetTap(tap)
	n := &Node{
		cluster:      c,
		id:           id,
		host:         host,
		nic:          nic,
		drv:          drv,
		tr:           core.NewTranslator(drv, 1), // no miss prefetching
		procs:        make(map[units.ProcID]*Proc),
		exports:      make(map[BufferID]*export),
		pendingFetch: make(map[uint32]*fetchState),
		nextBuf:      1,
		tap:          tap,
	}
	n.ep = fabric.NewEndpoint(id, c.net, nicClock, retransmitTimeout, n.receive)
	return n, nil
}

// ID reports the node id.
func (n *Node) ID() units.NodeID { return n.id }

// Host returns the node's host machine.
func (n *Node) Host() *hostos.Host { return n.host }

// NIC returns the node's network interface.
func (n *Node) NIC() *nicsim.NIC { return n.nic }

// Driver returns the node's UTLB device driver.
func (n *Node) Driver() *core.Driver { return n.drv }

// PagesSent and PagesReceived report firmware transfer counters.
func (n *Node) PagesSent() int64     { return n.pagesSent }
func (n *Node) PagesReceived() int64 { return n.pagesReceived }

// Retransmits reports the node's link-layer retransmission count.
func (n *Node) Retransmits() int64 { return n.ep.Retransmits() }

// NewProcess spawns a process on the node and registers it with the
// VMMC system (driver table, UTLB library, command buffer).
func (n *Node) NewProcess(pid units.ProcID, name string, pinLimitPages int, cfg core.LibConfig) (*Proc, error) {
	if _, ok := n.procs[pid]; ok {
		return nil, fmt.Errorf("vmmc: pid %d already exists on node %d", pid, n.id)
	}
	proc, err := n.host.Spawn(pid, name, vm.NewSpace(pid, n.host.Memory(), pinLimitPages))
	if err != nil {
		return nil, err
	}
	lib, err := core.NewLib(n.drv, proc, cfg)
	if err != nil {
		return nil, err
	}
	// The driver maps a command-post buffer in NIC SRAM into the
	// process (§4.2); model its SRAM cost.
	if err := n.nic.ReserveSRAM(commandBufBytes); err != nil {
		return nil, fmt.Errorf("vmmc: command buffer for pid %d: %w", pid, err)
	}
	p := &Proc{node: n, proc: proc, lib: lib}
	n.procs[pid] = p
	return p, nil
}

// commandBufBytes is the SRAM footprint of one process' command-post
// buffer.
const commandBufBytes = 4 * units.KB
