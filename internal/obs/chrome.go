package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"unicode/utf8"
)

// Chrome trace_event export: one trace "process" per run (labelled by
// the run's label), one "thread" per (node, pid, component) so
// Perfetto renders one track per component per simulated process.
// Timestamps in the format are microseconds; simulated time is
// nanoseconds, so values are emitted as fixed three-decimal micros —
// pure integer math, byte-deterministic.
//
// The writer's cost is proportional to the bytes it writes: everything
// before "ts": in an event line depends only on the run, (node, pid)
// and Kind, so it is rendered once per such triple the run uses; a
// line is that head copied into one output slice plus digits written
// in place — no fmt, no encoding/json, no allocation per event.

// chromeTID packs a track identity into a stable thread id. The
// format only needs tids to be unique within a process and ordered
// sensibly; 8 components and up to 512 pids per node fit comfortably.
func chromeTID(node, pid int, comp component) int {
	return node*4096 + pid*8 + int(comp)
}

// digits2 holds "00" to "99"; pow10[k] is 10^k.
const digits2 = "0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849" +
	"5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendDec appends u in decimal, zero-padded to at least width
// digits, written in place two at a time from the end.
func appendDec(b []byte, u uint64, width int) []byte {
	n := bits.Len64(u|1) * 1233 >> 12 // u|1 has u's digits (and 0 one); 1233/4096 ≈ log10(2)
	if u|1 >= pow10[n] {
		n++ // the estimate is one short at most
	}
	start := len(b)
	i := start + max(n, width)
	b = slices.Grow(b, i-start)[:i]
	for ; i > start+1; u /= 100 {
		i -= 2
		r := u % 100 * 2
		b[i], b[i+1] = digits2[r], digits2[r+1]
	}
	if i > start {
		b[start] = byte('0' + u)
	}
	return b
}

// appendMicros appends ns as a decimal microsecond value with exactly
// three fractional digits ("12.345") without going through float64:
// the nanoseconds, zero-padded to four digits, with a '.' before the last three.
func appendMicros(b []byte, ns int64) []byte {
	u := uint64(ns)
	if ns < 0 {
		b = append(b, '-')
		u = -u
	}
	b = appendDec(b, u, 4)
	n := len(b)
	return append(b[:n-3], '.', b[n-3], b[n-2], b[n-1])
}

// chromeKind is the pre-rendered, Kind-constant part of an event line.
// Which arguments a kind carries is static, so each key comes with the
// comma it needs.
type chromeKind struct {
	comp component
	span bool
	head string // `,\n{"ph":"X","pid":` or `,\n{"ph":"i","s":"t","pid":`
	mid  string // `,"name":"…","cat":"…","ts":`
	arg  string // `"pages":`, "" when Event.Arg is unused
	arg2 string // `,"probes":`, "" when Event.Arg2 is unused
	xfer string // `,"xfer":`
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
		key := func(name string) (s string) {
			if name != "" {
				s, comma = comma+jsonString(name)+":", ","
			}
			return s
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
// each kind's line head starts in heads (past its length byte; 0: none yet).
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
	heads  []byte // the run's line heads, each after its length byte
	procs  []chromeProc
	slots  []int32 // open-addressed index into procs, +1 (0 is empty)
	tracks []chromeTrack

	outBuf   [chromeFlushAt + 512]byte // output not yet written, and room for one more line
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

// proc returns the run's entry for (node, pid), adding it if new; the
// index stays at most half full, so one pid per event costs no search.
func (sc *chromeScratch) proc(node, pid uint32) *chromeProc {
	if s := sc.slot(node, pid); *s != 0 {
		return &sc.procs[*s-1]
	}
	if 2*len(sc.procs) >= len(sc.slots) {
		sc.slots = make([]int32, 2*len(sc.slots))
		for i := range sc.procs {
			*sc.slot(sc.procs[i].node, sc.procs[i].pid) = int32(i + 1)
		}
	}
	sc.procs = append(sc.procs, chromeProc{node: node, pid: pid})
	*sc.slot(node, pid) = int32(len(sc.procs))
	return &sc.procs[len(sc.procs)-1]
}

// findTracks resets the scratch for run and fills sc.tracks with the
// run's tracks, sorted by tid from their order of first use.
func (sc *chromeScratch) findTracks(run Run) {
	clear(sc.slots)
	sc.procs, sc.heads, sc.tracks = sc.procs[:0], sc.heads[:0], sc.tracks[:0]
	var p *chromeProc
	for _, chunk := range run.Chunks() {
		for i := range chunk {
			ev := &chunk[i]
			if p == nil || p.node != uint32(ev.Node) || p.pid != uint32(ev.PID) {
				p = sc.proc(uint32(ev.Node), uint32(ev.PID))
			}
			if comp := chromeKinds[min(int(ev.Kind), NumKinds)].comp; p.comps&(1<<comp) == 0 {
				p.comps |= 1 << comp
				sc.tracks = append(sc.tracks, chromeTrack{chromeTID(int(p.node), int(p.pid), comp), p.node, p.pid, comp})
			}
		}
	}
	slices.SortFunc(sc.tracks, func(a, b chromeTrack) int { return cmp.Compare(a.tid, b.tid) })
}

// head renders everything before "ts": in a line of kind k for process
// p of run index run, and returns where it starts in sc.heads.
func (sc *chromeScratch) head(run int, p *chromeProc, k int) int {
	ck := &chromeKinds[k]
	h := append(sc.heads, 0)
	off := len(h)
	h = append(appendDec(append(h, ck.head...), uint64(run), 1), `,"tid":`...)
	h = append(appendDec(h, uint64(chromeTID(int(p.node), int(p.pid), ck.comp)), 1), ck.mid...)
	h[off-1] = byte(len(h) - off)
	sc.heads, p.head[k] = h, off
	return off
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
		out = appendDec(append(append(out, sep...), `{"ph":"M","pid":`...), uint64(i), 1)
		out = append(out, `,"tid":0,"name":"process_name","args":{"name":`...)
		out = append(AppendJSON(out, run.Label), "}}"...)
		sep = ",\n"

		// Name the tracks before emitting their events. Component names
		// are plain identifiers, so quoting them needs no escaping.
		sc.findTracks(run)
		for _, t := range sc.tracks {
			out = appendDec(append(out, ",\n"+`{"ph":"M","pid":`...), uint64(i), 1)
			out = appendDec(append(out, `,"tid":`...), uint64(t.tid), 1)
			out = appendDec(append(out, `,"name":"thread_name","args":{"name":"n`...), uint64(t.node), 1)
			out = appendDec(append(out, "/p"...), uint64(t.pid), 1)
			out = append(append(append(out, '/'), componentNames[t.comp]...), `"}}`...)
			if len(out) >= chromeFlushAt {
				out = flush(out)
			}
		}

		var p *chromeProc
		for _, chunk := range run.Chunks() {
			for j := range chunk {
				ev := &chunk[j]
				if p == nil || p.node != uint32(ev.Node) || p.pid != uint32(ev.PID) {
					p = sc.proc(uint32(ev.Node), uint32(ev.PID))
				}
				k := min(int(ev.Kind), NumKinds)
				off := p.head[k]
				if off == 0 {
					off = sc.head(i, p, k)
				}
				out = append(out, sc.heads[off:off+int(sc.heads[off-1])]...)
				ck := &chromeKinds[k]
				out = appendMicros(out, int64(ev.Time))
				if ck.span {
					out = appendMicros(append(out, `,"dur":`...), int64(ev.Dur))
				}
				out = append(out, `,"args":{`...)
				if ck.arg != "" {
					out = appendDec(append(out, ck.arg...), uint64(ev.Arg), 1)
				}
				if ck.arg2 != "" {
					out = appendDec(append(out, ck.arg2...), uint64(ev.Arg2), 1)
				}
				// Transfer attribution rides along only when present, so
				// traces without ids keep their exact historical bytes.
				if ev.Xfer != 0 {
					out = appendDec(append(out, ck.xfer...), uint64(ev.Xfer), 1)
				}
				out = append(out, "}}"...)
				if len(out) >= chromeFlushAt {
					out = flush(out)
				}
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
	// Metadata payload for ph == "M" (args.name).
	MetaArgs struct {
		Name string `json:"name"`
	} `json:"-"`
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
