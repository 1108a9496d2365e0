package obs

import (
	"io"
	"math/bits"
	"strconv"
)

// The one writer of the Prometheus text exposition format and the one
// `le` bucket scheme. Every block on /metrics and in -metrics-out —
// the event metrics here, the xlate service counters, the live sink
// and the Go runtime gauges — is a list of families handed to a
// PromWriter, so the format (HELP/TYPE headers, label quoting,
// cumulative buckets, +Inf/_sum/_count) is decided in this file only.

// Histogram buckets: 2^7 .. 2^26 ns (128 ns .. ~67 ms) plus +Inf.
// The span of interest runs from a single UTLB-Cache probe (~hundreds
// of ns) up to a pin ioctl storm under an interrupt (~ms). Boundaries
// are fixed powers of two so the output never depends on the data.
const (
	BucketLow  = 7  // 2^7 = 128 ns
	BucketHigh = 26 // 2^26 ≈ 67 ms
	NumBuckets = BucketHigh - BucketLow + 1
)

// BucketIndex returns the index of the smallest bucket boundary
// 2^(BucketLow+i) that is >= d, or a value >= NumBuckets when d
// exceeds the largest finite boundary (+Inf only). One bits.Len64
// instead of a scan over all twenty boundaries.
func BucketIndex(d uint64) int {
	if d <= 1<<BucketLow {
		return 0
	}
	// Smallest p with d <= 2^p is Len64(d-1); d > 2^BucketLow here.
	return bits.Len64(d-1) - BucketLow
}

// PromWriter writes metric families in the Prometheus text exposition
// format. Lines are built with strconv.Append* in one reused buffer
// that is handed to the underlying writer whenever it fills, so
// writing allocates nothing per sample. The first write error sticks
// and is returned by Flush.
type PromWriter struct {
	w    io.Writer
	buf  []byte
	name string // the current family
	err  error
}

// promBufSize is the fill at which the buffer is written out; the
// buffer has room past it for the line that crosses the mark.
const promBufSize = 1 << 12

// NewPromWriter returns a writer onto w. Call Flush when done.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, buf: make([]byte, 0, promBufSize+512)}
}

// Family starts the family name of type typ ("counter", "gauge" or
// "histogram"): its HELP and TYPE lines, which the format wants once
// and ahead of the family's samples.
func (p *PromWriter) Family(name, help, typ string) {
	p.name = name
	p.buf = append(p.buf, "# HELP "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, help...)
	p.buf = append(p.buf, "\n# TYPE "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, typ...)
	p.endLine()
}

// Int writes one sample of the current family. labels alternate name
// and value.
func (p *PromWriter) Int(v int64, labels ...string) {
	p.head("", "", labels)
	p.buf = strconv.AppendInt(p.buf, v, 10)
	p.endLine()
}

// Uint is Int for the runtime's unsigned gauges.
func (p *PromWriter) Uint(v uint64, labels ...string) {
	p.head("", "", labels)
	p.buf = strconv.AppendUint(p.buf, v, 10)
	p.endLine()
}

// Float is Int for a fractional value, in %g form.
func (p *PromWriter) Float(v float64, labels ...string) {
	p.head("", "", labels)
	p.buf = strconv.AppendFloat(p.buf, v, 'g', -1, 64)
	p.endLine()
}

// Histogram writes one series of the current histogram family from
// per-bucket counts in the BucketIndex scheme: the cumulative
// less-or-equal lines, then +Inf, _sum and _count. count covers every
// observation, including those past the last finite boundary.
func (p *PromWriter) Histogram(perBucket *[NumBuckets]int64, sum, count int64, labels ...string) {
	cum := int64(0)
	for i, c := range perBucket {
		cum += c
		p.head("_bucket", leBounds[i], labels)
		p.buf = strconv.AppendInt(p.buf, cum, 10)
		p.endLine()
	}
	p.head("_bucket", "+Inf", labels)
	p.buf = strconv.AppendInt(p.buf, count, 10)
	p.endLine()
	p.head("_sum", "", labels)
	p.buf = strconv.AppendInt(p.buf, sum, 10)
	p.endLine()
	p.head("_count", "", labels)
	p.buf = strconv.AppendInt(p.buf, count, 10)
	p.endLine()
}

// leBounds is the text of each finite boundary, rendered once.
var leBounds = func() (text [NumBuckets]string) {
	for i := range text {
		text[i] = strconv.FormatInt(1<<(BucketLow+i), 10)
	}
	return text
}()

// head starts a sample line: the family name plus suffix, the label
// set (le last, when given) and the space before the value.
func (p *PromWriter) head(suffix, le string, labels []string) {
	p.buf = append(p.buf, p.name...)
	p.buf = append(p.buf, suffix...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		p.buf = append(p.buf, sep)
		p.buf = append(p.buf, labels[i]...)
		p.buf = append(p.buf, '=')
		p.buf = strconv.AppendQuote(p.buf, labels[i+1])
		sep = ','
	}
	if le != "" {
		p.buf = append(p.buf, sep)
		p.buf = append(p.buf, `le="`...)
		p.buf = append(p.buf, le...)
		p.buf = append(p.buf, '"')
		sep = ','
	}
	if sep == ',' {
		p.buf = append(p.buf, '}')
	}
	p.buf = append(p.buf, ' ')
}

// endLine ends the line and drains the buffer once it has filled.
func (p *PromWriter) endLine() {
	p.buf = append(p.buf, '\n')
	if len(p.buf) >= promBufSize {
		p.drain()
	}
}

func (p *PromWriter) drain() {
	if p.err == nil && len(p.buf) > 0 {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// Flush writes out what is buffered and reports the first error any
// write met.
func (p *PromWriter) Flush() error {
	p.drain()
	return p.err
}
