package experiments

import (
	"errors"
	"fmt"

	"utlb/internal/core"
	"utlb/internal/fabric"
	"utlb/internal/fault"
	"utlb/internal/parallel"
	"utlb/internal/phys"
	"utlb/internal/stats"
	"utlb/internal/units"
	"utlb/internal/vmmc"
)

// This file is the chaos experiment: a VMMC cluster driven under
// deterministic fault injection (internal/fault), sweeping the fault
// rates and reporting how goodput, link-layer retransmissions, and the
// host's reclaim-retry machinery respond. The zero-rate row doubles as
// the control: identical workload, no injection.
//
// The workload is sized to provoke the reclaim path organically too:
// a "hog" process maps (but never pins) most of the sender node's
// frames, so the sender's pin traffic hits frame exhaustion and the
// host reclaimer must evict hog pages — the paper's paging-pressure
// regime (§1) on top of injected faults.

// The base per-check fault rates of the fabric drop, fabric
// corruption, host pin and cache fill sites; the sweep multiplies them
// per row.
const (
	chaosDropRate    = 0.02
	chaosCorruptRate = 0.01
	chaosPinRate     = 0.04
	chaosFillRate    = 0.02
)

// Cluster geometry for one chaos row. Host memory is deliberately
// tight: hogPages of unpinned mappings plus the sender's rotating
// buffer footprint exceed the frame count, forcing the reclaimer to
// run even in the zero-injection control row.
const (
	chaosFrames     = 192 // physical frames per node
	chaosHogPages   = 112 // unpinned pages mapped by the hog process
	chaosSendPages  = 2   // pages per message
	chaosSendSlots  = 41  // distinct sender start pages (footprint)
	chaosExportPgs  = 8   // receiver export size in pages
	chaosPinLimit   = 12  // sender pinned-page quota (forces evictions)
	chaosSenderVA   = units.VAddr(0x400000)
	chaosHogVA      = units.VAddr(0x900000)
	chaosReceiverVA = units.VAddr(0x200000)
)

// chaosMultipliers is the swept scaling of the base fault rates.
var chaosMultipliers = []float64{0, 0.5, 1, 2, 4}

// Chaos sweeps fault-injection rates over a two-node VMMC cluster
// under memory pressure and reports the degradation curve: messages
// attempted/delivered/failed, link retransmissions, reclaimer passes,
// pin retries, dropped cache fills, total faults struck, and goodput.
func Chaos(opts Options) (*stats.Table, error) {
	seed := chaosSeed(opts)
	nmsgs := max(8, int(32*opts.scale()))

	tbl := stats.NewTable(
		fmt.Sprintf("Chaos: fault-rate sweep, %d sends of %d pages, seed %d (base drop %.3f corrupt %.3f pin %.3f fill %.3f)",
			nmsgs, chaosSendPages, seed, chaosDropRate, chaosCorruptRate, chaosPinRate, chaosFillRate),
		"xrate", "sends", "ok", "failed", "KB recvd", "retrans",
		"reclaims", "pin retries", "fills lost", "faults", "goodput MB/s")

	rows, err := parallel.Map(len(chaosMultipliers), func(mi int) ([]string, error) {
		m := chaosMultipliers[mi]
		cl, inj, err := chaosPoint(opts, mi)
		if err != nil {
			return nil, err
		}
		res, err := chaosRun(cl, inj, nmsgs)
		if err != nil {
			return nil, fmt.Errorf("chaos x%.1f: %w", m, err)
		}
		return []string{
			fmt.Sprintf("%.1f", m),
			fmt.Sprintf("%d", nmsgs),
			fmt.Sprintf("%d", res.ok),
			fmt.Sprintf("%d", res.failed),
			fmt.Sprintf("%.0f", float64(res.recvBytes)/float64(units.KB)),
			fmt.Sprintf("%d", res.retrans),
			fmt.Sprintf("%d", res.reclaims),
			fmt.Sprintf("%d", res.pinRetries),
			fmt.Sprintf("%d", res.fillsLost),
			fmt.Sprintf("%d", res.faults),
			fmt.Sprintf("%.1f", res.goodputMBps),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		tbl.AddRow(row...)
	}
	return tbl, nil
}

type chaosResult struct {
	ok, failed  int
	recvBytes   int64
	retrans     int64
	reclaims    int64
	pinRetries  int64
	fillsLost   int64
	faults      int64
	goodputMBps float64
}

// chaosSeed is the sweep's fault seed.
func chaosSeed(opts Options) int64 {
	if opts.FaultSeed != 0 {
		return opts.FaultSeed
	}
	return opts.Seed + 77
}

// chaosPoint builds fault-rate point mi: its injector and its two-node
// cluster. Every point owns both, and its injector is seeded by point,
// so points are independent of worker scheduling.
func chaosPoint(opts Options, mi int) (*vmmc.Cluster, *fault.Injector, error) {
	m := chaosMultipliers[mi]
	inj := fault.NewInjector(chaosSeed(opts)+int64(mi)*1013, fault.Plan{
		fault.SiteFabricDrop:    {Rate: chaosDropRate * m},
		fault.SiteFabricCorrupt: {Rate: chaosCorruptRate * m},
		fault.SiteHostPin:       {Rate: chaosPinRate * m},
		fault.SiteCacheFill:     {Rate: chaosFillRate * m},
	})
	cl, err := vmmc.NewCluster(vmmc.Options{
		Nodes:        2,
		HostMemBytes: chaosFrames * units.PageSize,
		CacheEntries: 256,
		Injector:     inj,
		Recorder:     opts.recorderFor(fmt.Sprintf("chaos/x%.1f", m)),
	})
	return cl, inj, err
}

// chaosRun drives one fault-rate point end to end on cl.
func chaosRun(cl *vmmc.Cluster, inj *fault.Injector, nmsgs int) (chaosResult, error) {
	sender, err := cl.Node(0).NewProcess(1, "sender", chaosPinLimit, core.LibConfig{})
	if err != nil {
		return chaosResult{}, err
	}
	hog, err := cl.Node(0).NewProcess(2, "hog", 4, core.LibConfig{})
	if err != nil {
		return chaosResult{}, err
	}
	receiver, err := cl.Node(1).NewProcess(101, "receiver", 2*chaosExportPgs, core.LibConfig{})
	if err != nil {
		return chaosResult{}, err
	}

	// The hog maps most of node 0's frames without pinning them:
	// reclaimable memory pressure.
	for i := 0; i < chaosHogPages; i++ {
		if err := hog.Write(chaosHogVA+units.VAddr(i)*units.PageSize, []byte{0xa5}); err != nil {
			return chaosResult{}, err
		}
	}

	buf, err := receiver.Export(chaosReceiverVA, chaosExportPgs*units.PageSize)
	if err != nil {
		return chaosResult{}, err
	}
	imp, err := sender.Import(1, buf)
	if err != nil {
		return chaosResult{}, err
	}

	res := chaosResult{}
	msg := make([]byte, chaosSendPages*units.PageSize)
	for i := 0; i < nmsgs; i++ {
		// Rotate the send buffer across chaosSendSlots start pages so
		// pin traffic keeps churning the quota and the frame pool.
		va := chaosSenderVA + units.VAddr((i*3)%chaosSendSlots)*units.PageSize
		for j := range msg {
			msg[j] = byte(i + j)
		}
		if err := sender.Write(va, msg); err != nil {
			return chaosResult{}, err
		}
		offset := (i % (chaosExportPgs / chaosSendPages)) * len(msg)
		err := sender.Send(imp, offset, va, len(msg))
		switch {
		case err == nil:
			res.ok++
		case errors.Is(err, fabric.ErrLinkDead) || errors.Is(err, fault.ErrInjected) ||
			errors.Is(err, phys.ErrOutOfMemory) ||
			errors.Is(err, core.ErrNoVictim) || errors.Is(err, vmmc.ErrBufferUnpinned):
			// Degraded but alive: the command failed, the MCP and the
			// cluster carry on.
			res.failed++
		default:
			return chaosResult{}, err
		}
	}

	res.recvBytes, _, err = receiver.Received(buf)
	if err != nil {
		return chaosResult{}, err
	}
	for id := 0; id < cl.Nodes(); id++ {
		n := cl.Node(units.NodeID(id))
		res.retrans += n.Retransmits()
		res.reclaims += n.Host().Reclaims()
		res.pinRetries += n.Host().PinRetries()
		res.fillsLost += n.Driver().Cache().DroppedFills()
	}
	res.faults = inj.Fired()
	elapsed := max(cl.Node(0).NIC().Clock().Now(), cl.Node(1).NIC().Clock().Now())
	if us := elapsed.Micros(); us > 0 {
		res.goodputMBps = float64(res.recvBytes) / us // bytes/µs == MB/s
	}
	return res, nil
}
