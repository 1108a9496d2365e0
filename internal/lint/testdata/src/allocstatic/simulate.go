// Package utlb is the allocstatic fixture for stores into Go maps: an
// insert may grow the map, so a map-backed page table on the replay
// path allocates per reference. Reads, slice stores and constructors
// are shown clean alongside, as is the one documented setup site.
package utlb

type pageInfo struct {
	pfn  uint64
	pins int
}

type space struct {
	pages map[uint64]pageInfo
	hits  map[uint64]int
	procs map[uint32]*space
	slab  []pageInfo
}

// NewSpace is a stop node: a constructor may fill its maps freely.
func NewSpace() *space {
	s := &space{pages: map[uint64]pageInfo{}, hits: map[uint64]int{}, procs: map[uint32]*space{}}
	s.pages[0] = pageInfo{}
	return s
}

// SimulateWith is a budget-tested hot entry point.
func SimulateWith(s *space, pid uint32, vpns []uint64) int {
	s.register(pid)
	pinned := 0
	for _, vpn := range vpns {
		pinned += s.pin(vpn)
	}
	return pinned
}

// register runs once per process at setup; its store keeps a
// documented contract instead of a per-reference one.
func (s *space) register(pid uint32) {
	//lint:ignore allocstatic one store per spawned process at setup, never per simulated reference
	s.procs[pid] = s
}

// pin is per reference: every map store below is a positive; the map
// read and the slice store are not.
func (s *space) pin(vpn uint64) int {
	pi := s.pages[vpn]
	pi.pins++
	s.pages[vpn] = pi
	s.hits[vpn]++
	s.hits[vpn] += 2
	(s.hits)[vpn], s.slab[0] = 1, pi
	return s.hits[vpn]
}
