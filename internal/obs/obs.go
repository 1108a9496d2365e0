// Package obs is the observability subsystem of the simulation stack:
// typed, timestamped event recording with per-run buffering, plus
// exporters for Chrome trace_event JSON (chrome.go) and
// Prometheus-style text metrics (metrics.go).
//
// The paper's evaluation is entirely about *where translation time
// goes* — host-side lookup vs NIC cache miss vs DMA fill over the I/O
// bus vs pin/unpin syscalls — so every simulation layer (tlbcache,
// bus, hostos, nicsim, core, sim, vmmc) can hold a Tap and emit
// events carrying its own simulated clock. Recording is strictly
// observational: attaching a recorder never changes simulated time or
// results, and the disabled path (a nil *Tap) costs one pointer compare
// and zero allocations on the hot paths.
package obs

import (
	"slices"
	"sort"
	"sync"

	"utlb/internal/units"
)

// Kind is the event taxonomy: one value per distinct thing the
// simulation can do that the paper's evaluation attributes time or
// counts to.
type Kind uint8

// The event taxonomy. Components own disjoint kind ranges so a track
// in the Chrome export maps 1:1 onto a simulation layer.
const (
	// KindNone is the zero Kind; never recorded.
	KindNone Kind = iota

	// User-level UTLB library (core.Lib): bit-vector check outcomes.
	KindCheckHit
	KindCheckMiss

	// Shared UTLB-Cache (tlbcache): lookup outcomes and line motion.
	KindCacheHit
	KindCacheMiss
	KindCacheFill
	KindCacheEvict
	KindCacheInvalidate

	// Trace-driven simulator (sim): Hill 3C attribution of NI misses.
	KindMissCompulsory
	KindMissCapacity
	KindMissConflict

	// I/O bus (bus): DMA transfers between host DRAM and NIC SRAM.
	KindDMARead
	KindDMAWrite

	// Host OS (hostos): pin/unpin ioctls (protection-domain crossing),
	// their in-kernel interrupt-context variants, and interrupts.
	KindPin
	KindUnpin
	KindKernelPin
	KindKernelUnpin
	KindInterrupt

	// NIC (nicsim): the firmware's translation-lookup probe phase
	// (lookup base + cache probes).
	KindNIProbe

	// VMMC firmware (vmmc): remote-store page out, deposit in.
	KindSend
	KindRecv

	// Robustness (PR 5): injected faults and the recovery machinery
	// they provoke. Faults render on the track of the layer they
	// strike (no new component: the Chrome tid packs the component
	// into 3 bits, so the 8 existing tracks are the full budget).
	KindFaultPin     // host: injected frame exhaustion on a pin
	KindFaultFetch   // cache: injected fetch-DMA error (fill dropped)
	KindFaultDrop    // nic: packet vanished in the switch
	KindFaultCorrupt // nic: payload byte flipped on the wire
	KindReclaim      // host: page-reclaimer pass (span)
	KindPinRetry     // host: pin retried after a reclaim pass
	KindSendRetry    // vmmc: firmware re-send after link death + the mapper's backoff
	KindLinkDead     // vmmc: link declared dead, command failed

	// Live telemetry (PR 8): sampled request chains from the sharded
	// translation service. The request span renders on the lib track
	// (the client-facing edge); per-shard segments render on the cache
	// track — each shard is a stock tlbcache, so that is literally
	// where the time goes. No new component: the Chrome tid packs the
	// component into 3 bits and the 8 existing tracks are the budget.
	KindXlateReq   // xlate: one sampled service request (lookup/insert batch)
	KindXlateShard // xlate: one shard's segment of a sampled batch

	numKinds
)

// NumKinds reports the number of defined kinds (for exporters).
const NumKinds = int(numKinds)

// kindMeta is the static description of one kind: display name, the
// component track it renders on, whether it is a span (has a
// duration), and the names of its kind-specific arguments.
type kindMeta struct {
	name string
	comp component
	span bool
	arg  string // meaning of Event.Arg ("" = unused)
	arg2 string // meaning of Event.Arg2 ("" = unused)
}

var kindMetas = [numKinds]kindMeta{
	KindNone:            {name: "none", comp: compNone},
	KindCheckHit:        {name: "check_hit", comp: compLib, span: true, arg: "pages"},
	KindCheckMiss:       {name: "check_miss", comp: compLib, span: true, arg: "pages"},
	KindCacheHit:        {name: "cache_hit", comp: compCache, arg: "vpn", arg2: "probes"},
	KindCacheMiss:       {name: "cache_miss", comp: compCache, arg: "vpn", arg2: "probes"},
	KindCacheFill:       {name: "cache_fill", comp: compCache, arg: "vpn"},
	KindCacheEvict:      {name: "cache_evict", comp: compCache, arg: "vpn"},
	KindCacheInvalidate: {name: "cache_invalidate", comp: compCache, arg: "vpn", arg2: "count"},
	KindMissCompulsory:  {name: "miss_compulsory", comp: compSim, arg: "vpn"},
	KindMissCapacity:    {name: "miss_capacity", comp: compSim, arg: "vpn"},
	KindMissConflict:    {name: "miss_conflict", comp: compSim, arg: "vpn"},
	KindDMARead:         {name: "dma_read", comp: compBus, span: true, arg: "bytes"},
	KindDMAWrite:        {name: "dma_write", comp: compBus, span: true, arg: "bytes"},
	KindPin:             {name: "host_pin", comp: compHost, span: true, arg: "pages"},
	KindUnpin:           {name: "host_unpin", comp: compHost, span: true, arg: "pages"},
	KindKernelPin:       {name: "host_pin_intr", comp: compHost, span: true, arg: "pages"},
	KindKernelUnpin:     {name: "host_unpin_intr", comp: compHost, span: true, arg: "pages"},
	KindInterrupt:       {name: "interrupt", comp: compHost, span: true},
	KindNIProbe:         {name: "ni_probe", comp: compNic, span: true, arg: "probes"},
	KindSend:            {name: "vmmc_send", comp: compVMMC, arg: "bytes"},
	KindRecv:            {name: "vmmc_recv", comp: compVMMC, arg: "bytes"},
	KindFaultPin:        {name: "fault_pin", comp: compHost, arg: "vpn"},
	KindFaultFetch:      {name: "fault_fetch", comp: compCache, arg: "vpn"},
	KindFaultDrop:       {name: "fault_drop", comp: compNic, arg: "bytes"},
	KindFaultCorrupt:    {name: "fault_corrupt", comp: compNic, arg: "bytes"},
	KindReclaim:         {name: "host_reclaim", comp: compHost, span: true, arg: "frames", arg2: "want"},
	KindPinRetry:        {name: "pin_retry", comp: compHost, arg: "attempt"},
	KindSendRetry:       {name: "send_retry", comp: compVMMC, arg: "attempt"},
	KindLinkDead:        {name: "link_dead", comp: compVMMC, arg: "bytes"},
	KindXlateReq:        {name: "xlate_req", comp: compLib, span: true, arg: "keys", arg2: "hits"},
	KindXlateShard:      {name: "xlate_shard", comp: compCache, span: true, arg: "shard", arg2: "keys"},
}

// component is a simulation layer: one track per (node, pid) in the
// Chrome export, whose tid packs the component into its low 3 bits —
// so these eight are the full budget.
type component uint8

const (
	compNone component = iota
	compLib
	compCache
	compSim
	compBus
	compHost
	compNic
	compVMMC
	numComponents
)

var componentNames = [numComponents]string{
	"none", "lib", "cache", "sim", "bus", "host", "nic", "vmmc",
}

// String reports the kind's snake_case display name.
func (k Kind) String() string {
	if int(k) >= NumKinds {
		return "invalid"
	}
	return kindMetas[k].name
}

// Component reports the simulation layer the kind belongs to.
func (k Kind) Component() string {
	if int(k) >= NumKinds {
		return "invalid"
	}
	return componentNames[kindMetas[k].comp]
}

// IsSpan reports whether events of this kind carry a duration.
func (k Kind) IsSpan() bool {
	return int(k) < NumKinds && kindMetas[k].span
}

// Event is one recorded occurrence. It is a plain value: recording
// never allocates, and recorders must not retain pointers into it
// (there are none).
type Event struct {
	// Time is the event start on the recording component's simulated
	// clock (host clock for host/lib events, NIC clock for cache, bus,
	// nic and vmmc events).
	Time units.Time
	// Dur is the simulated duration for span kinds; 0 for instants.
	Dur units.Time
	// Arg and Arg2 are kind-specific (VPN, byte count, page count,
	// probe count — see the kind taxonomy). Every one fits in 32 bits:
	// a VPN is below units.VASpacePages, the rest count one operation.
	Arg  uint32
	Arg2 uint32
	// Xfer identifies the transfer (traced communication operation,
	// VMMC send/fetch/export) the event belongs to, so analysis can
	// reconstruct the causal chain cache probe → DMA fill → pin →
	// interrupt that makes up one operation's latency. 0 means
	// unattributed (recorded outside any transfer). IDs are allocated
	// by Tap.Begin, dense from 1 in execution order.
	Xfer uint32
	// PID is the process the event belongs to; 0 for system-wide
	// events (bus transfers, interrupts not tied to a process).
	PID units.ProcID
	// Node is the simulated cluster node; runs with one node use 0.
	Node units.NodeID
	// Kind says what happened.
	Kind Kind
}

// Recorder receives events. The simulated layers do not hold one: they
// record through a Tap (tap.go), whose nil value is the disabled path.
type Recorder interface {
	Record(Event)
}

// Nop is an explicit no-op Recorder for callers that want a non-nil
// value with disabled semantics.
type Nop struct{}

// Record discards the event.
func (Nop) Record(Event) {}

// Buffer is the buffered Recorder: it keeps every event in memory, in
// recording order. A Buffer is single-goroutine (one per simulation
// run / worker); use a Collector to hand out one Buffer per concurrent
// run and merge them deterministically.
//
// Events are recorded into fixed-size chunks (80 KB), so recording
// never copies what it holds, and Run hands the chunks themselves to
// the exporters and the analyzer: a run allocates its final size, once,
// where one slice grown by append allocated six times that and copied
// it five times.
type Buffer struct {
	label string
	// chunks hold the events in order; every chunk but the last is full.
	chunks [][]Event
	n      int
}

const bufferChunkEvents = 2048

// NewBuffer returns an empty buffer labelled label (the run identity
// used for deterministic merging and Chrome process naming).
func NewBuffer(label string) *Buffer { return &Buffer{label: label} }

// Record appends the event.
func (b *Buffer) Record(ev Event) {
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		b.chunks = append(b.chunks, make([]Event, 0, bufferChunkEvents))
		last++
	}
	b.chunks[last] = append(b.chunks[last], ev)
	b.n++
}

// Label reports the buffer's run label.
func (b *Buffer) Label() string { return b.label }

// Events returns the recorded events in recording order as one slice;
// treat it as read-only. Events recorded later are not added to it: ask
// again. Past one chunk every call gathers a fresh copy, so callers
// that only read the events in order take Run instead.
func (b *Buffer) Events() []Event {
	switch len(b.chunks) {
	case 0:
		return nil
	case 1:
		return slices.Clip(b.chunks[0]) // capped: an append to it must not write into the chunk
	}
	return slices.Concat(b.chunks...)
}

// Len reports how many events have been recorded.
func (b *Buffer) Len() int { return b.n }

// Run is one labelled event stream, the unit the exporters consume. Its
// events stay in the chunks they were recorded into: every chunk but
// the last has the length of the first, so event i is found by one
// division, and no chunk is empty.
type Run struct {
	Label  string
	chunks [][]Event
}

// NewRun returns the run of events, which it keeps (as its one chunk)
// and does not copy.
func NewRun(label string, events []Event) Run {
	if len(events) == 0 {
		return Run{Label: label}
	}
	return Run{Label: label, chunks: [][]Event{events}}
}

// Chunks returns the run's events in recording order, as consecutive
// slices to range over; treat them as read-only.
func (r Run) Chunks() [][]Event { return r.chunks }

// Len reports how many events the run holds.
func (r Run) Len() int {
	last := len(r.chunks) - 1
	if last < 0 {
		return 0
	}
	return last*len(r.chunks[0]) + len(r.chunks[last])
}

// At returns event i of the run, 0 <= i < Len().
func (r Run) At(i int) *Event {
	size := len(r.chunks[0])
	return &r.chunks[i/size][i%size]
}

// Run returns the events recorded so far as an exporter Run. It shares
// the buffer's chunks — no event is copied — and copies only the list
// of them, so events recorded later are not added to it: ask again.
func (b *Buffer) Run() Run { return Run{Label: b.label, chunks: slices.Clone(b.chunks)} }

// Collector hands out per-run Buffers to concurrent simulation
// workers and merges them deterministically: Runs() orders buffers by
// label, never by registration order, so the merged output is
// byte-identical at any worker-pool width. Labels must therefore be
// deterministic and unique per run (the experiment layer builds them
// from experiment/app/config/node names).
type Collector struct {
	mu      sync.Mutex
	buffers map[string]*Buffer
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{buffers: make(map[string]*Buffer)}
}

// Buffer returns the buffer registered under label, creating it on
// first use. Safe for concurrent callers; the returned buffer itself
// is single-goroutine (each concurrent run must use its own label).
func (c *Collector) Buffer(label string) *Buffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.buffers[label]; ok {
		return b
	}
	b := NewBuffer(label)
	c.buffers[label] = b
	return b
}

// Runs returns every non-empty buffer as a Run, sorted by label —
// the deterministic merge order.
func (c *Collector) Runs() []Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	labels := make([]string, 0, len(c.buffers))
	for label, b := range c.buffers {
		if b.Len() > 0 {
			labels = append(labels, label)
		}
	}
	sort.Strings(labels)
	runs := make([]Run, len(labels))
	for i, label := range labels {
		runs[i] = c.buffers[label].Run()
	}
	return runs
}

// Events reports the total event count across all buffers.
func (c *Collector) Events() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, b := range c.buffers {
		n += b.Len()
	}
	return n
}
