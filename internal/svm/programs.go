package svm

import (
	"encoding/binary"
	"fmt"

	"utlb/internal/units"
)

// This file carries small SPMD kernels in the mould of the paper's
// SPLASH-2 applications. They run for real on the simulated cluster —
// every remote page fault and diff flush crosses VMMC and the UTLB —
// and they double as trace sources: System.Trace() after a run yields
// a communication trace captured exactly the way the paper captured
// its SVM traces.

// word helpers: the shared region is treated as an array of uint32.

const wordBytes = 4

// WordsPerPage is the number of 32-bit words in one shared page.
const WordsPerPage = units.PageSize / wordBytes

// LoadWord reads the i'th word of the shared region.
func (p *Peer) LoadWord(i int) (uint32, error) {
	b, err := p.Read(i*wordBytes, wordBytes)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// StoreWord writes the i'th word of the shared region.
func (p *Peer) StoreWord(i int, v uint32) error {
	var b [wordBytes]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return p.Write(i*wordBytes, b[:])
}

// RunJacobi executes iters iterations of a 1-D Jacobi relaxation over
// a shared array of n words: x'[i] = (x[i-1] + x[i+1]) / 2, endpoints
// fixed. Rows are block-partitioned across peers; each iteration reads
// the neighbours' boundary words (remote faults) and writes only the
// local block, with a barrier between iterations — the regular,
// nearest-neighbour class of SVM workload.
//
// The array is double-buffered in the region: generation g lives at
// word offset (g%2)*n.
func RunJacobi(s *System, n, iters int) error {
	if n*2*wordBytes > s.RegionPages()*units.PageSize {
		return fmt.Errorf("svm: jacobi array of %d words does not fit doubled in region", n)
	}
	// Initialise from peer 0: a step function.
	p0 := s.Peer(0)
	for i := 0; i < n; i++ {
		v := uint32(0)
		if i >= n/2 {
			v = 1000
		}
		if err := p0.StoreWord(i, v); err != nil {
			return err
		}
	}
	if err := s.Barrier(); err != nil {
		return err
	}

	peers := s.Peers()
	for it := 0; it < iters; it++ {
		src := (it % 2) * n
		dst := ((it + 1) % 2) * n
		for pi := 0; pi < peers; pi++ {
			p := s.Peer(pi)
			lo, hi := blockRange(n, peers, pi)
			for i := lo; i < hi; i++ {
				if i == 0 || i == n-1 {
					v, err := p.LoadWord(src + i)
					if err != nil {
						return err
					}
					if err := p.StoreWord(dst+i, v); err != nil {
						return err
					}
					continue
				}
				a, err := p.LoadWord(src + i - 1)
				if err != nil {
					return err
				}
				b, err := p.LoadWord(src + i + 1)
				if err != nil {
					return err
				}
				if err := p.StoreWord(dst+i, (a+b)/2); err != nil {
					return err
				}
			}
		}
		if err := s.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// JacobiSerial computes the same relaxation sequentially, for
// verification.
func JacobiSerial(n, iters int) []uint32 {
	cur := make([]uint32, n)
	for i := n / 2; i < n; i++ {
		cur[i] = 1000
	}
	next := make([]uint32, n)
	for it := 0; it < iters; it++ {
		next[0], next[n-1] = cur[0], cur[n-1]
		for i := 1; i < n-1; i++ {
			next[i] = (cur[i-1] + cur[i+1]) / 2
		}
		cur, next = next, cur
	}
	return cur
}

// JacobiResult reads back generation iters of a RunJacobi execution.
func JacobiResult(s *System, n, iters int) ([]uint32, error) {
	p := s.Peer(0)
	base := (iters % 2) * n
	out := make([]uint32, n)
	for i := range out {
		v, err := p.LoadWord(base + i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// RunTranspose transposes an n×n word matrix in place (via a second
// buffer): peer p owns row block p and reads whole columns — the
// strided, all-to-all class of workload (FFT's communication style).
// src at word 0, dst at word n*n.
func RunTranspose(s *System, n int) error {
	if 2*n*n*wordBytes > s.RegionPages()*units.PageSize {
		return fmt.Errorf("svm: %dx%d transpose does not fit in region", n, n)
	}
	p0 := s.Peer(0)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if err := p0.StoreWord(r*n+c, uint32(r*n+c)); err != nil {
				return err
			}
		}
	}
	if err := s.Barrier(); err != nil {
		return err
	}
	peers := s.Peers()
	for pi := 0; pi < peers; pi++ {
		p := s.Peer(pi)
		lo, hi := blockRange(n, peers, pi)
		for r := lo; r < hi; r++ {
			for c := 0; c < n; c++ {
				v, err := p.LoadWord(c*n + r) // column walk: strided
				if err != nil {
					return err
				}
				if err := p.StoreWord(n*n+r*n+c, v); err != nil {
					return err
				}
			}
		}
	}
	return s.Barrier()
}

// RunSumReduce sums words 1..n of the shared array into word 0, each
// peer accumulating its block locally and adding into the shared total
// under a lock — the lock-based reduction class of workload.
func RunSumReduce(s *System, n int) (uint32, error) {
	if (n+1)*wordBytes > s.RegionPages()*units.PageSize {
		return 0, fmt.Errorf("svm: array of %d words does not fit", n)
	}
	p0 := s.Peer(0)
	if err := p0.StoreWord(0, 0); err != nil {
		return 0, err
	}
	for i := 1; i <= n; i++ {
		if err := p0.StoreWord(i, uint32(i)); err != nil {
			return 0, err
		}
	}
	if err := s.Barrier(); err != nil {
		return 0, err
	}
	const lockID = 1
	peers := s.Peers()
	for pi := 0; pi < peers; pi++ {
		p := s.Peer(pi)
		lo, hi := blockRange(n, peers, pi)
		var local uint32
		for i := lo; i < hi; i++ {
			v, err := p.LoadWord(i + 1)
			if err != nil {
				return 0, err
			}
			local += v
		}
		s.AcquireLock(p, lockID)
		total, err := p.LoadWord(0)
		if err != nil {
			return 0, err
		}
		if err := p.StoreWord(0, total+local); err != nil {
			return 0, err
		}
		if err := s.ReleaseLock(p, lockID); err != nil {
			return 0, err
		}
	}
	if err := s.Barrier(); err != nil {
		return 0, err
	}
	return s.Peer(peers - 1).LoadWord(0)
}

// blockRange splits [0, n) into peers blocks and returns block pi.
func blockRange(n, peers, pi int) (lo, hi int) {
	lo = pi * n / peers
	hi = (pi + 1) * n / peers
	return lo, hi
}
