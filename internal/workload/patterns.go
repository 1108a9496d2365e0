package workload

import "math/rand"

// This file holds the per-application access patterns. Each pattern
// returns a sequence of page indices (into a region of `footprint`
// pages) of roughly `length` accesses; Generate exactifies both. The
// shapes follow the paper's application descriptions in §6.1 and the
// regular/irregular classification of §6.5.

// fftInterleave spaces FFT's pages apart: the transpose exchanges
// interleaved rows (pages), so a process touches every other page of
// the shared array and never the ones between.
const fftInterleave = 2

// fftPattern: the parallel 2D FFT's transpose phases. Each phase walks
// the process' rows with a large stride, and the rows themselves are
// interleaved with other processes' rows — so consecutive operations
// touch pages far apart AND the pages adjacent to a touched page are
// never accessed locally. That hole-filled stride is what makes
// 16-page sequential pre-pinning backfire on FFT: "it does not access
// most of the pages that are pre-pinned" (§6.5, Table 7).
func fftPattern(rng *rand.Rand, footprint, length int) []int {
	if footprint <= 0 {
		return nil
	}
	// A permutation stride coprime with the footprint so one phase
	// visits every owned page exactly once.
	stride := footprint/16 + 1
	for gcd(stride, footprint) != 1 {
		stride++
	}
	seq := make([]int, 0, length)
	phases := (length + footprint - 1) / footprint
	for ph := 0; ph < phases && len(seq) < length; ph++ {
		start := rng.Intn(footprint)
		for k := 0; k < footprint && len(seq) < length; k++ {
			seq = append(seq, ((start+k*stride)%footprint)*fftInterleave)
		}
	}
	return seq
}

// luPattern: blocked dense LU decomposition. The perimeter blocks of
// the remaining submatrix are communicated each step, so access is
// sequential within 8-page blocks and the active region shrinks
// triangularly — the paper's other "regular" program.
func luPattern(rng *rand.Rand, footprint, length int) []int {
	if footprint <= 0 {
		return nil
	}
	const block = 8
	seq := make([]int, 0, length)
	lo := 0
	for len(seq) < length {
		if lo >= footprint-block {
			lo = 0 // next outer iteration
		}
		// Sweep the remaining panel sequentially in blocks.
		for b := lo; b < footprint && len(seq) < length; b += block {
			for i := 0; i < block && b+i < footprint && len(seq) < length; i++ {
				seq = append(seq, b+i)
			}
			// Skip ahead: only perimeter blocks are exchanged.
			b += block * (1 + rng.Intn(3))
		}
		lo += block
	}
	return seq
}

// barnesPattern: Barnes-Hut N-body. Each process owns a spatial
// partition of particles with strong locality; most accesses fall in a
// slowly drifting window with heavy reuse (footprint is small relative
// to lookups: the paper's most cache-friendly program).
func barnesPattern(rng *rand.Rand, footprint, length int) []int {
	if footprint <= 0 {
		return nil
	}
	window := 48
	if window > footprint {
		window = footprint
	}
	seq := make([]int, 0, length)
	base := 0
	for len(seq) < length {
		// Burst of reuse within the window.
		burst := 8 + rng.Intn(16)
		for i := 0; i < burst && len(seq) < length; i++ {
			seq = append(seq, (base+rng.Intn(window))%footprint)
		}
		// The tree walk occasionally reaches a remote partition.
		if rng.Float64() < 0.15 {
			seq = append(seq, rng.Intn(footprint))
		}
		base = (base + 1 + rng.Intn(3)) % footprint // slow drift
	}
	return seq
}

// radixPattern: radix sort's alternating phases — a sequential scan of
// the local key pages, then a permutation scatter across the whole
// array when results are combined.
func radixPattern(rng *rand.Rand, footprint, length int) []int {
	if footprint <= 0 {
		return nil
	}
	seq := make([]int, 0, length)
	scan := footprint * 3 / 5
	perm := rng.Perm(footprint)
	for len(seq) < length {
		for k := 0; k < scan && len(seq) < length; k++ { // local scan
			seq = append(seq, k)
		}
		for _, p := range perm { // scatter phase
			if len(seq) >= length {
				break
			}
			seq = append(seq, p)
		}
	}
	return seq
}

// raytracePattern: task-farm raytracing. Communication "revolves
// around the task queues": a tiny hot set is touched constantly while
// rays hit scene pages irregularly.
func raytracePattern(rng *rand.Rand, footprint, length int) []int {
	return taskFarmPattern(rng, footprint, length, 8, 0.35)
}

// volrendPattern: task-farm volume rendering — same queue-centric
// structure as raytrace with an even hotter queue.
func volrendPattern(rng *rand.Rand, footprint, length int) []int {
	return taskFarmPattern(rng, footprint, length, 6, 0.45)
}

// taskFarmPattern mixes a hot task-queue region with irregular object
// accesses that retain mild spatial locality (objects span a few
// consecutive pages).
func taskFarmPattern(rng *rand.Rand, footprint, length, hotPages int, hotRate float64) []int {
	if footprint <= 0 {
		return nil
	}
	if hotPages > footprint {
		hotPages = footprint
	}
	seq := make([]int, 0, length)
	for len(seq) < length {
		if rng.Float64() < hotRate {
			seq = append(seq, rng.Intn(hotPages))
			continue
		}
		obj := hotPages + rng.Intn(max(1, footprint-hotPages))
		run := 1 + rng.Intn(3)
		for i := 0; i < run && len(seq) < length; i++ {
			seq = append(seq, min(obj+i, footprint-1))
		}
	}
	return seq
}

// waterPattern: Water-spatial's cell-based molecule interactions — a
// small footprint swept repeatedly with neighbour re-touches.
func waterPattern(rng *rand.Rand, footprint, length int) []int {
	if footprint <= 0 {
		return nil
	}
	seq := make([]int, 0, length)
	for len(seq) < length {
		for p := 0; p < footprint && len(seq) < length; p++ {
			seq = append(seq, p)
			if rng.Float64() < 0.3 { // neighbouring cell interaction
				seq = append(seq, (p+footprint-1)%footprint)
			}
		}
	}
	return seq
}

// protocolPattern: the SVM protocol process — lock pages, directory
// metadata and diff buffers. Small and very hot.
func protocolPattern(rng *rand.Rand, footprint, length int) []int {
	if footprint <= 0 {
		return nil
	}
	seq := make([]int, 0, length)
	for len(seq) < length {
		// Zipf-ish: low pages run hottest.
		p := int(float64(footprint) * rng.Float64() * rng.Float64())
		if p >= footprint {
			p = footprint - 1
		}
		seq = append(seq, p)
	}
	return seq
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
