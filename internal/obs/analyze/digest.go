package analyze

import "math/bits"

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

// DigestBuckets is the number of fixed histogram buckets a Digest
// carries, exported so live collectors (internal/telemetry) can
// maintain bucket counts with their own concurrency discipline and
// fold them back into a Digest for quantile math.
const DigestBuckets = numDigestBuckets

// BucketIndex maps a nanosecond value to its Digest bucket. Negative
// values clamp to zero, mirroring Add.
func BucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	return digestIndex(uint64(v))
}

// BucketValue is the lower bound of bucket idx — the inverse of
// BucketIndex up to bucket resolution.
func BucketValue(idx int) int64 { return digestValue(idx) }

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

// AddBucketCount folds count samples that landed in bucket idx into
// d, as if Add had been called count times with the bucket's lower
// bound. Sum is bucket-resolution (~3% low); Max rises to the bucket
// bound only when the new bucket exceeds it, so a caller that needs
// the exact maximum tracks it itself. This is
// the bridge from externally maintained bucket counts (the telemetry
// sink's atomic histograms) back into Digest quantile math.
func (d *Digest) AddBucketCount(idx int, count int64) {
	if count <= 0 || idx < 0 || idx >= numDigestBuckets {
		return
	}
	v := digestValue(idx)
	d.counts[idx] += count
	d.n += count
	d.sum += v * count
	if v > d.max {
		d.max = v
	}
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
