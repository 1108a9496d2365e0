package obs

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf8"
)

// Chrome trace_event export: one trace "process" per run (labelled by
// the run's label), one "thread" per (node, pid, component) so
// Perfetto renders one track per component per simulated process.
// Timestamps in the format are microseconds; simulated time is
// nanoseconds, so values are emitted as fixed three-decimal micros —
// pure integer math, byte-deterministic.
//
// An event line is fixed-width stores: a headWidth copy of its head
// (all before "ts":, rendered by the tracks pass once per run, (node,
// pid) and Kind), 16-byte key blocks, and numbers as 8-byte words of
// digits from a table. A store may run past the line into bytes the
// next one overwrites, so checking for lineMax bytes of room is a
// line's one bound check.

const (
	headWidth = 128 // every line head fits (TestChromeLineBounds)
	lineMax   = 512 // one line and what its last stores write past it
)

// chromeTID packs a track identity into a stable thread id. The
// format only needs tids to be unique within a process and ordered
// sensibly; 8 components and up to 512 pids per node fit comfortably.
func chromeTID(node, pid int, comp component) int {
	return node*4096 + pid*8 + int(comp)
}

// dec4[n] is n's four decimal digits, "0000" to "9999", as a
// little-endian word: the first digit is the low byte.
var dec4 = func() (tab [1e4]uint32) {
	for n := range tab {
		tab[n] = uint32('0'+n/1000) | uint32('0'+n/100%10)<<8 | uint32('0'+n/10%10)<<16 | uint32('0'+n%10)<<24
	}
	return tab
}()

// digits8 is u < 10^8's eight digits, zero-padded, as a dec4 pair.
func digits8(u uint64) uint64 { return uint64(dec4[u/1e4]) | uint64(dec4[u%1e4])<<32 }

// put8 writes u < 10^8 at b[i:] without leading zeros and returns the
// index past it; it stores eight bytes whatever u's width.
func put8(b []byte, i int, u uint64) int {
	w := digits8(u)
	z := bits.TrailingZeros64(w-0x3030303030303030|1<<56) &^ 7 // the leading zeros (at most seven) in bits
	binary.LittleEndian.PutUint64(b[i:], w>>z)
	return i + 8 - z>>3
}

// putDec writes u in decimal at b[i:] and returns the index past it:
// one 8-byte store per eight digits. It stores at most seven bytes
// past the index it returns.
func putDec(b []byte, i int, u uint64) int {
	if u < 1e8 {
		return put8(b, i, u)
	}
	i = putDec(b, i, u/1e8)
	binary.LittleEndian.PutUint64(b[i:], digits8(u%1e8))
	return i + 8
}

// putMicros writes ns at b[i:] as microseconds with exactly three
// fractional digits ("12.345", "-0.005"), without going through
// float64, and returns the index past it.
func putMicros(b []byte, i int, ns int64) int {
	u := uint64(ns)
	if ns < 0 {
		b[i] = '-'
		i, u = i+1, -u
	}
	i = putDec(b, i, u/1000)
	binary.LittleEndian.PutUint32(b[i:], dec4[u%1000]&^0xff|'.') // "0ddd" with its '0' made the point
	return i + 4
}

// chromeKey is a JSON key and the comma before it in a 16-byte block.
type chromeKey struct {
	b [16]byte
	n int
}

func newChromeKey(s string) (k chromeKey) { k.n = copy(k.b[:], s); return k }

var durKey, argsKey = newChromeKey(`,"dur":`), newChromeKey(`,"args":{`)

// chromeKind is the pre-rendered, Kind-constant part of an event line.
// Which arguments a kind carries is static, so each key comes with the
// comma it needs.
type chromeKind struct {
	comp            component
	span            bool
	head            string    // `,\n{"ph":"X","pid":` or `,\n{"ph":"i","s":"t","pid":`
	mid             string    // `,"name":"…","cat":"…","ts":`
	arg, arg2, xfer chromeKey // `"pages":`, `,"probes":`, `,"xfer":`; n is 0 when Event.Arg or Arg2 is unused
}

// chromeKinds is indexed by Kind; the extra last entry serves every
// Kind outside the taxonomy (a caller-built Event can carry one),
// rendered as an instant named "invalid" on the none track.
var chromeKinds = func() (tab [numKinds + 1]chromeKind) {
	jsonString := func(s string) string { return string(AppendJSON(nil, s)) }
	for k := range tab {
		meta := kindMeta{name: "invalid", comp: compNone}
		if k < NumKinds {
			meta = kindMetas[k]
		}
		ck := chromeKind{
			comp: meta.comp, span: meta.span, head: ",\n" + `{"ph":"i","s":"t","pid":`,
			mid: `,"name":` + jsonString(meta.name) + `,"cat":` + jsonString(componentNames[meta.comp]) + `,"ts":`,
		}
		if meta.span {
			ck.head = ",\n" + `{"ph":"X","pid":`
		}
		comma := ""
		key := func(name string) (c chromeKey) {
			if name != "" {
				c, comma = newChromeKey(comma+jsonString(name)+":"), ","
			}
			return c
		}
		ck.arg, ck.arg2, ck.xfer = key(meta.arg), key(meta.arg2), key("xfer")
		tab[k] = ck
	}
	return tab
}()

// chromeTrack is one (node, pid, component) thread of a run.
type chromeTrack struct {
	tid       int
	node, pid uint32
	comp      component
}

// chromeProc is one (node, pid) of a run: its components, and where
// each kind's line head starts in heads (past its length byte; 0: none).
type chromeProc struct {
	node, pid uint32
	comps     uint8
	head      [numKinds + 1]int
}

const chromeFlushAt = 52 << 10 // the output size at which it goes to the writer

// chromeScratch is what one WriteChromeTrace call works in, shared
// through a pool. The arrays back the slices, so New allocates once,
// and no more than 64 KB (TestChromeScratchSize).
type chromeScratch struct {
	heads  []byte // the run's line heads, each after its length byte, then headWidth bytes of padding
	procs  []chromeProc
	slots  []int32 // open-addressed index into procs, +1 (0 is empty)
	tracks []chromeTrack
	recent [16]*chromeProc // proc's cache

	outBuf   [chromeFlushAt + lineMax]byte // output not yet written, and room for one more line
	headBuf  [8 << 10]byte
	procBuf  [8]chromeProc
	slotBuf  [32]int32
	trackBuf [32]chromeTrack
}

var chromePool = ScratchPool[chromeScratch]{New: func() *chromeScratch {
	sc := new(chromeScratch)
	sc.heads, sc.procs, sc.slots, sc.tracks = sc.headBuf[:0], sc.procBuf[:0], sc.slotBuf[:], sc.trackBuf[:0]
	return sc
}}

// slot returns the slot that holds (node, pid), or the empty one for it.
func (sc *chromeScratch) slot(node, pid uint32) *int32 {
	mask := len(sc.slots) - 1
	for i := int((uint64(node)<<32|uint64(pid))*0x9e3779b97f4a7c15>>32) & mask; ; i = (i + 1) & mask {
		if s := &sc.slots[i]; *s == 0 || sc.procs[*s-1].node == node && sc.procs[*s-1].pid == pid {
			return s
		}
	}
}

// proc returns the run's entry for (node, pid), adding it if new. A
// direct-mapped cache of entries answers first, since pid 0's bus
// events interleave with the processes' own: consecutive events share
// a (node, pid) only 38–78 % of the time. The index behind it stays at
// most half full, so one pid per event costs no search.
func (sc *chromeScratch) proc(node, pid uint32) *chromeProc {
	c := &sc.recent[(node*8+pid)%uint32(len(sc.recent))]
	if p := *c; p != nil && p.node == node && p.pid == pid {
		return p
	}
	if s := sc.slot(node, pid); *s != 0 {
		*c = &sc.procs[*s-1]
		return *c
	}
	if 2*len(sc.procs) >= len(sc.slots) {
		sc.slots = make([]int32, 2*len(sc.slots))
		for i := range sc.procs {
			*sc.slot(sc.procs[i].node, sc.procs[i].pid) = int32(i + 1)
		}
	}
	if len(sc.procs) == cap(sc.procs) {
		sc.recent = [len(sc.recent)]*chromeProc{} // the append moves the entries
	}
	sc.procs = append(sc.procs, chromeProc{node: node, pid: pid})
	*sc.slot(node, pid) = int32(len(sc.procs))
	*c = &sc.procs[len(sc.procs)-1]
	return *c
}

// findTracks resets the scratch for r, the run-th of the export,
// renders the line head of every (node, pid, Kind) r uses, and fills
// sc.tracks with r's tracks, sorted by tid from their order of use.
func (sc *chromeScratch) findTracks(run int, r Run) {
	clear(sc.slots)
	sc.recent = [len(sc.recent)]*chromeProc{}
	sc.procs, sc.heads, sc.tracks = sc.procs[:0], sc.heads[:0], sc.tracks[:0]
	for _, chunk := range r.Chunks() {
		for i := range chunk {
			ev := &chunk[i]
			p := sc.proc(uint32(ev.Node), uint32(ev.PID))
			if k := min(int(ev.Kind), NumKinds); p.head[k] == 0 {
				sc.head(run, p, k)
				if comp := chromeKinds[k].comp; p.comps&(1<<comp) == 0 {
					p.comps |= 1 << comp
					sc.tracks = append(sc.tracks, chromeTrack{chromeTID(int(p.node), int(p.pid), comp), p.node, p.pid, comp})
				}
			}
		}
	}
	sc.heads = append(sc.heads, make([]byte, headWidth)...) // so that every head is one fixed-width copy
	slices.SortFunc(sc.tracks, func(a, b chromeTrack) int { return cmp.Compare(a.tid, b.tid) })
}

// head renders everything before "ts": in a line of kind k for process
// p of run index run into sc.heads, after its length byte.
func (sc *chromeScratch) head(run int, p *chromeProc, k int) {
	ck := &chromeKinds[k]
	h := append(sc.heads, 0)
	off := len(h)
	h = append(strconv.AppendUint(append(h, ck.head...), uint64(run), 10), `,"tid":`...)
	h = append(strconv.AppendUint(h, uint64(chromeTID(int(p.node), int(p.pid), ck.comp)), 10), ck.mid...)
	h[off-1] = byte(len(h) - off)
	sc.heads, p.head[k] = h, off
}

// putLine writes the rest of ev's line, of kind ck, after its head in
// b[:i], and returns the line's length. b needs lineMax bytes.
func putLine(b []byte, i int, ev *Event, ck *chromeKind) int {
	i = putMicros(b, i, int64(ev.Time))
	if ck.span {
		*(*[16]byte)(b[i:]) = durKey.b
		i = putMicros(b, i+durKey.n, int64(ev.Dur))
	}
	*(*[16]byte)(b[i:]) = argsKey.b
	i += argsKey.n
	if ck.arg.n != 0 {
		*(*[16]byte)(b[i:]) = ck.arg.b
		i = putDec(b, i+ck.arg.n, uint64(ev.Arg))
	}
	if ck.arg2.n != 0 {
		*(*[16]byte)(b[i:]) = ck.arg2.b
		i = putDec(b, i+ck.arg2.n, uint64(ev.Arg2))
	}
	// Transfer attribution rides along only when present, so traces
	// without ids keep their exact historical bytes.
	if ev.Xfer != 0 {
		*(*[16]byte)(b[i:]) = ck.xfer.b
		i = putDec(b, i+ck.xfer.n, uint64(ev.Xfer))
	}
	b[i], b[i+1] = '}', '}'
	return i + 2
}

// WriteChromeTrace writes runs as Chrome trace_event JSON (the
// {"traceEvents": [...]} object form, loadable in Perfetto and
// chrome://tracing). Output is byte-deterministic for a given runs
// slice: run order is the caller's (Collector.Runs is label-sorted),
// metadata is emitted sorted, and events keep recording order.
func WriteChromeTrace(w io.Writer, runs []Run) error {
	sc := chromePool.Get()
	out := append(sc.outBuf[:0], "{\"traceEvents\":[\n"...)
	sep := "" // before every entry but the first: ",\n"
	var err error
	flush := func(out []byte) []byte { // after an error, as with bufio, nothing more is written
		if err == nil {
			_, err = w.Write(out)
		}
		return out[:0]
	}
	for i, run := range runs {
		// Process metadata: name the trace process after the run label.
		out = strconv.AppendUint(append(append(out, sep...), `{"ph":"M","pid":`...), uint64(i), 10)
		out = append(out, `,"tid":0,"name":"process_name","args":{"name":`...)
		out = append(AppendJSON(out, run.Label), "}}"...)
		sep = ",\n"

		// Name the tracks before emitting their events. Component names
		// are plain identifiers, so quoting them needs no escaping.
		sc.findTracks(i, run)
		for _, t := range sc.tracks {
			out = strconv.AppendUint(append(out, ",\n"+`{"ph":"M","pid":`...), uint64(i), 10)
			out = strconv.AppendUint(append(out, `,"tid":`...), uint64(t.tid), 10)
			out = strconv.AppendUint(append(out, `,"name":"thread_name","args":{"name":"n`...), uint64(t.node), 10)
			out = strconv.AppendUint(append(out, "/p"...), uint64(t.pid), 10)
			out = append(append(append(out, '/'), componentNames[t.comp]...), `"}}`...)
			if len(out) >= chromeFlushAt {
				out = flush(out)
			}
		}

		// cap(out) ≥ chromeFlushAt + lineMax leaves each line its room.
		for _, chunk := range run.Chunks() {
			for j := range chunk {
				ev := &chunk[j]
				if len(out) >= chromeFlushAt {
					out = flush(out)
				}
				p := sc.proc(uint32(ev.Node), uint32(ev.PID))
				k := min(int(ev.Kind), NumKinds)
				off := p.head[k]
				line := out[len(out) : len(out)+lineMax]
				*(*[headWidth]byte)(line) = *(*[headWidth]byte)(sc.heads[off:])
				out = out[:len(out)+putLine(line, int(sc.heads[off-1]), ev, &chromeKinds[k])]
			}
		}
	}
	flush(append(out, "\n]}\n"...))
	// A scratch a pathological run grew (one pid per event, say) is dropped.
	if cap(sc.heads) <= 1<<16 && cap(sc.procs) <= 256 {
		chromePool.Put(sc)
	}
	return err
}

// AppendJSON appends s as a JSON string literal, byte for byte what
// json.Marshal makes of it (<, >, &, U+2028, U+2029 and control bytes
// escaped, invalid UTF-8 replaced by \ufffd), but without its pooled
// encoder, whose refill after a collection costs allocations.
func AppendJSON(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// TraceEvent is the decoded form of one trace_event entry, used by
// the traceinfo command to analyse recorded runs.
type TraceEvent struct {
	Ph   string           `json:"ph"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Args map[string]int64 `json:"args,omitempty"`
}

// TraceFile is a decoded Chrome trace: per-process labels plus events.
type TraceFile struct {
	// ProcessNames maps chrome pid -> run label (from process_name
	// metadata).
	ProcessNames map[int]string
	// ThreadNames maps (pid, tid) -> track name.
	ThreadNames map[[2]int]string
	// Events holds the non-metadata events in file order.
	Events []TraceEvent
}

// ReadChromeTrace parses trace JSON produced by WriteChromeTrace (or
// any trace in the {"traceEvents": [...]} object form with compatible
// fields).
func ReadChromeTrace(r io.Reader) (*TraceFile, error) {
	var raw struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args map[string]json.RawMessage
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	tf := &TraceFile{
		ProcessNames: map[int]string{},
		ThreadNames:  map[[2]int]string{},
	}
	for _, e := range raw.TraceEvents {
		if e.Ph == "M" {
			var name string
			if rawName, ok := e.Args["name"]; ok {
				if err := json.Unmarshal(rawName, &name); err != nil {
					return nil, fmt.Errorf("obs: parse %s metadata: %w", e.Name, err)
				}
			}
			switch e.Name {
			case "process_name":
				tf.ProcessNames[e.PID] = name
			case "thread_name":
				tf.ThreadNames[[2]int{e.PID, e.TID}] = name
			}
			continue
		}
		ev := TraceEvent{
			Ph: e.Ph, PID: e.PID, TID: e.TID,
			Name: e.Name, Cat: e.Cat, TS: e.TS, Dur: e.Dur,
		}
		if len(e.Args) > 0 {
			ev.Args = make(map[string]int64, len(e.Args))
			for k, v := range e.Args {
				var n int64
				if err := json.Unmarshal(v, &n); err == nil {
					ev.Args[k] = n
				}
			}
		}
		tf.Events = append(tf.Events, ev)
	}
	return tf, nil
}
