package workload

import "math/rand"

// ZipfPages returns a Zipf-distributed page sequence: length accesses
// over pages [0, footprint) with skew s > 1 (smaller indices hotter).
// Deterministic in seed; the classic cache-friendly load shape.
func ZipfPages(seed int64, footprint, length int, skew float64) []int {
	if footprint < 1 {
		footprint = 1
	}
	if length < 1 {
		length = 1
	}
	if skew <= 1 {
		skew = 1.2
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, skew, 1, uint64(footprint-1))
	seq := make([]int, length)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}
