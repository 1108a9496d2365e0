package utlb_test

// Godoc examples: runnable documentation for the three API layers.

import (
	"bytes"
	"fmt"
	"log"

	"utlb"
)

// Example demonstrates the cluster layer: a zero-copy remote store
// between two simulated nodes.
func Example() {
	cluster, err := utlb.NewCluster(utlb.ClusterOptions{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	sender, _ := cluster.Node(0).NewProcess(1, "sender", 0, utlb.LibConfig{Policy: utlb.LRU})
	receiver, _ := cluster.Node(1).NewProcess(2, "receiver", 0, utlb.LibConfig{Policy: utlb.LRU})

	buf, _ := receiver.Export(0x2000_0000, utlb.PageSize)
	imp, _ := sender.Import(1, buf)
	msg := []byte("no syscalls on the common path")
	sender.Write(0x1000_0000, msg)
	sender.Send(imp, 0, 0x1000_0000, len(msg))

	got, _ := receiver.Read(0x2000_0000, len(msg))
	fmt.Printf("%s\n", got)
	fmt.Printf("interrupts: %d\n", sender.Node().Host().InterruptCount())
	// Output:
	// no syscalls on the common path
	// interrupts: 0
}

// ExampleProc_Redirect demonstrates VMMC-2's transfer-redirection
// (§4.1): the receiver points its export at a second buffer, the
// sender's store lands there instead, and the export is withdrawn
// exactly once.
func ExampleProc_Redirect() {
	cluster, err := utlb.NewCluster(utlb.ClusterOptions{Nodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	sender, _ := cluster.Node(0).NewProcess(1, "sender", 0, utlb.LibConfig{Policy: utlb.LRU})
	receiver, _ := cluster.Node(1).NewProcess(2, "receiver", 0, utlb.LibConfig{Policy: utlb.LRU})

	buf, _ := receiver.Export(0x2000_0000, utlb.PageSize)
	if err := receiver.Redirect(buf, 0x3000_0000); err != nil {
		log.Fatal(err)
	}
	imp, _ := sender.Import(1, buf)
	msg := []byte("landed at the redirect target")
	sender.Write(0x1000_0000, msg)
	if err := sender.Send(imp, 0, 0x1000_0000, len(msg)); err != nil {
		log.Fatal(err)
	}

	target, _ := receiver.Read(0x3000_0000, len(msg))
	original, _ := receiver.Read(0x2000_0000, len(msg))
	fmt.Printf("%s\n", target)
	fmt.Printf("original buffer untouched: %v\n", bytes.Equal(original, make([]byte, len(msg))))
	fmt.Println("first Unexport:", receiver.Unexport(buf))
	fmt.Println("second Unexport:", receiver.Unexport(buf))
	// Output:
	// landed at the redirect target
	// original buffer untouched: true
	// first Unexport: <nil>
	// second Unexport: vmmc: pid 2 does not own export 1
}

// ExampleSimulate demonstrates the trace-driven evaluation layer: the
// UTLB never unpins with unconstrained memory, the baseline churns.
func ExampleSimulate() {
	tr, err := utlb.GenerateTrace("barnes", 1998, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := utlb.DefaultSimConfig()
	cfg.CacheEntries = 256

	u, _ := utlb.Simulate(tr, cfg)
	cfg.Mechanism = utlb.Interrupt
	i, _ := utlb.Simulate(tr, cfg)

	fmt.Printf("same cache, same misses: %v\n", u.NIMisses == i.NIMisses)
	fmt.Printf("UTLB unpins: %d\n", u.Unpins)
	fmt.Printf("baseline unpins more: %v\n", i.Unpins > u.Unpins)
	// Output:
	// same cache, same misses: true
	// UTLB unpins: 0
	// baseline unpins more: true
}

// ExampleNewSVM demonstrates the shared-virtual-memory layer: a
// verified parallel kernel whose communication all flows through the
// UTLB.
func ExampleNewSVM() {
	sys, err := utlb.NewSVM(utlb.SVMConfig{Peers: 2, RegionPages: 16})
	if err != nil {
		log.Fatal(err)
	}
	const n, iters = 1024, 4
	if err := utlb.RunJacobi(sys, n, iters); err != nil {
		log.Fatal(err)
	}
	got, _ := utlb.JacobiResult(sys, n, iters)
	want := utlb.JacobiSerial(n, iters)
	match := true
	for i := range want {
		if got[i] != want[i] {
			match = false
		}
	}
	fmt.Printf("jacobi verified: %v\n", match)
	fmt.Printf("captured a trace: %v\n", len(sys.Trace()) > 0)
	// Output:
	// jacobi verified: true
	// captured a trace: true
}

// ExampleClusterOptions demonstrates why the Shared UTLB-Cache offsets
// each process' index (§6.3): four SPMD workers send from the same
// virtual pages, so without offsetting their translations collide in a
// direct-mapped cache that could hold them all.
func ExampleClusterOptions() {
	const workers, pages = 4, 96
	missRate := func(noOffset bool) float64 {
		cluster, err := utlb.NewCluster(utlb.ClusterOptions{Nodes: 2, CacheEntries: 512, NoIndexOffset: noOffset})
		if err != nil {
			log.Fatal(err)
		}
		sink, _ := cluster.Node(1).NewProcess(100, "sink", 0, utlb.LibConfig{Policy: utlb.LRU})
		buf, _ := sink.Export(0x7000_0000, pages*utlb.PageSize)
		procs := make([]*utlb.Proc, workers)
		imps := make([]*utlb.Imported, workers)
		for w := range procs {
			procs[w], _ = cluster.Node(0).NewProcess(utlb.ProcID(w+1), "worker", 0, utlb.LibConfig{Policy: utlb.LRU})
			imps[w], _ = procs[w].Import(1, buf)
		}
		for round := 0; round < 6; round++ {
			for pg := 0; pg < pages; pg++ {
				for w, p := range procs { // interleaved, as on a timeshared node
					if err := p.Send(imps[w], pg*utlb.PageSize, utlb.VAddr(0x1000_0000+pg*utlb.PageSize), utlb.PageSize); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
		cache := cluster.Node(0).Driver().Cache()
		return 100 * float64(cache.Misses()) / float64(cache.Hits()+cache.Misses())
	}
	fmt.Printf("direct-nohash miss rate: %.1f%%\n", missRate(true))
	fmt.Printf("direct miss rate:        %.1f%%\n", missRate(false))
	// Output:
	// direct-nohash miss rate: 100.0%
	// direct miss rate:        38.8%
}

// ExamplePolicyKind demonstrates why the UTLB lets each application
// choose its replacement policy (§3.4): under a 64-page pin quota, a
// sequential sweep over 96 pages makes LRU unpin exactly the page it
// needs next, while a mostly-hot mix makes MRU throw away the hot set.
func ExamplePolicyKind() {
	sweep := func(i int) int { return i % 96 }
	hotCold := func(i int) int {
		if i%10 == 0 {
			return 1000 + i%512
		}
		return i % 32
	}
	unpins := func(page func(int) int, policy utlb.PolicyKind) float64 {
		var tr utlb.Trace
		for i := 0; i < 576; i++ {
			tr = append(tr, utlb.TraceRecord{
				Time: utlb.FromMicros(float64(5 * (i + 1))), PID: 1,
				VA: utlb.VAddr(page(i)) * utlb.PageSize, Bytes: utlb.PageSize,
			})
		}
		cfg := utlb.DefaultSimConfig()
		cfg.CacheEntries = 1024
		cfg.Policy = policy
		cfg.PinLimitPages = 64
		res, err := utlb.Simulate(tr, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res.UnpinRate()
	}
	for _, p := range []utlb.PolicyKind{utlb.LRU, utlb.MRU} {
		fmt.Printf("%s unpins per lookup: sweep %.3f, hot/cold %.3f\n", p, unpins(sweep, p), unpins(hotCold, p))
	}
	// Output:
	// LRU unpins per lookup: sweep 0.889, hot/cold 0.045
	// MRU unpins per lookup: sweep 0.333, hot/cold 0.085
}

// ExampleFaultPlan demonstrates the live cluster over lossy links: an
// all-to-all exchange between four nodes, with a fifth of all packets
// dropped, still delivers every byte, and no host takes an interrupt.
func ExampleFaultPlan() {
	const nodes, size = 4, 2 * utlb.PageSize
	lossy := utlb.NewFaultInjector(1, utlb.FaultPlan{utlb.SiteFabricDrop: {Rate: 0.2}})
	cluster, err := utlb.NewCluster(utlb.ClusterOptions{Nodes: nodes, Injector: lossy})
	if err != nil {
		log.Fatal(err)
	}
	// Rank i receives from peer j at recv+j*size and sends from send+j*size.
	const recv, send = utlb.VAddr(0x4000_0000), utlb.VAddr(0x1000_0000)
	payload := func(from, to int) []byte {
		return bytes.Repeat([]byte{byte(from*nodes + to)}, size)
	}
	procs := make([]*utlb.Proc, nodes)
	bufs := make([][]utlb.BufferID, nodes)
	for i := range procs {
		procs[i], _ = cluster.Node(utlb.NodeID(i)).NewProcess(utlb.ProcID(i+1), "rank", 0, utlb.LibConfig{Policy: utlb.LRU})
		bufs[i] = make([]utlb.BufferID, nodes)
		for j := range bufs[i] {
			bufs[i][j], _ = procs[i].Export(recv+utlb.VAddr(j*size), size)
		}
	}
	for i, p := range procs {
		for j := range procs {
			if i == j {
				continue
			}
			imp, _ := p.Import(utlb.NodeID(j), bufs[j][i])
			p.Write(send+utlb.VAddr(j*size), payload(i, j))
			if err := p.Send(imp, 0, send+utlb.VAddr(j*size), size); err != nil {
				log.Fatal(err)
			}
		}
	}
	bad, interrupts := 0, 0
	for i, p := range procs {
		for j := range procs {
			if got, _ := p.Read(recv+utlb.VAddr(j*size), size); i != j && !bytes.Equal(got, payload(j, i)) {
				bad++
			}
		}
		interrupts += int(p.Node().Host().InterruptCount())
	}
	_, _, dropped, _ := cluster.Network().Stats()
	fmt.Printf("packets dropped: %v\n", dropped > 0)
	fmt.Printf("transfers with a wrong byte: %d\n", bad)
	fmt.Printf("interrupts: %d\n", interrupts)
	// Output:
	// packets dropped: true
	// transfers with a wrong byte: 0
	// interrupts: 0
}
