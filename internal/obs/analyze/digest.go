package analyze

import (
	"math/bits"

	"utlb/internal/obs"
)

// Digest is a fixed-resolution latency histogram: exact below 64 ns,
// then 32 sub-buckets per power of two (HDR-histogram style, ~3%
// relative error). Everything is integer arithmetic over int64
// nanoseconds, so quantiles are byte-stable across machines and across
// any order of Add calls — the property the /api/analyze goldens rely
// on. The zero value is ready to use.
type Digest struct {
	counts [numDigestBuckets]int64
	n      int64
	sum    int64
	max    int64
}

const (
	subBits    = 5
	subBuckets = 1 << subBits
	// Top bucket: oct=63 gives (63-subBits+1)<<subBits + 31 = 1919.
	numDigestBuckets = (64 - subBits + 1) * subBuckets // 1920
)

// digestIndex maps a value to its bucket. Values below 2*subBuckets
// get exact buckets; above that, bucket (oct-subBits+1)*32 + the top
// subBits bits below the leading one.
func digestIndex(v uint64) int {
	if v < 2*subBuckets {
		return int(v)
	}
	oct := bits.Len64(v) - 1
	return (oct-subBits+1)<<subBits + int((v>>uint(oct-subBits))&(subBuckets-1))
}

// digestValue is the lower bound of bucket idx (inverse of
// digestIndex up to bucket resolution).
func digestValue(idx int) int64 {
	if idx < 2*subBuckets {
		return int64(idx)
	}
	oct := idx>>subBits + subBits - 1
	sub := idx & (subBuckets - 1)
	return int64(1)<<uint(oct) + int64(sub)<<uint(oct-subBits)
}

// Add records one value. Negative values clamp to zero (durations are
// never negative; the clamp keeps a corrupted input from panicking).
func (d *Digest) Add(v int64) {
	if v < 0 {
		v = 0
	}
	d.counts[digestIndex(uint64(v))]++
	d.n++
	d.sum += v
	if v > d.max {
		d.max = v
	}
}

// Merge adds every value recorded in o to d, as if each had been
// added to d directly.
func (d *Digest) Merge(o *Digest) {
	for i, c := range o.counts {
		d.counts[i] += c
	}
	d.n += o.n
	d.sum += o.sum
	d.max = max(d.max, o.max)
}

// PromBuckets returns d's counts in obs.PromWriter.Histogram's `le`
// scheme. A digest bucket counts under the first le boundary at or
// above its inclusive upper bound, so no le line flatters; digest
// buckets never straddle a power of two, so none is split. Buckets
// past the last finite boundary (the top ones' bounds overflow int64)
// count under +Inf only.
func (d *Digest) PromBuckets() (le [obs.NumBuckets]int64) {
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		if hi := digestValue(i+1) - 1; hi >= 0 {
			if bi := obs.BucketIndex(uint64(hi)); bi < obs.NumBuckets {
				le[bi] += c
			}
		}
	}
	return le
}

// N, Sum and Max report the count, total and exact maximum of added
// values.
func (d *Digest) N() int64   { return d.n }
func (d *Digest) Sum() int64 { return d.sum }
func (d *Digest) Max() int64 { return d.max }

// Quantile returns the value at percentile p in [1,100]: the lower
// bound of the bucket holding the ceil(n*p/100)-th smallest value,
// clamped to the exact maximum (so Quantile(100) == Max).
func (d *Digest) Quantile(p int) int64 {
	if d.n == 0 {
		return 0
	}
	rank := (d.n*int64(p) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank >= d.n {
		return d.max
	}
	var cum int64
	for i := range d.counts {
		cum += d.counts[i]
		if cum >= rank {
			v := digestValue(i)
			if v > d.max {
				v = d.max
			}
			return v
		}
	}
	return d.max
}
