package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Chrome trace_event export: one trace "process" per run (labelled by
// the run's label), one "thread" per (node, pid, component) so
// Perfetto renders one track per component per simulated process.
// Timestamps in the format are microseconds; simulated time is
// nanoseconds, so values are emitted as fixed three-decimal micros —
// pure integer math, byte-deterministic.
//
// The writer's cost is proportional to the bytes it writes: everything
// about an event line that depends only on its Kind is rendered once
// into chromeKinds, and a line is that constant text plus integer
// appends into one reused buffer — no fmt, no encoding/json, no
// allocation per event.

// chromeTID packs a track identity into a stable thread id. The
// format only needs tids to be unique within a process and ordered
// sensibly; 8 components and up to 512 pids per node fit comfortably.
func chromeTID(node, pid int, comp component) int {
	return node*4096 + pid*8 + int(comp)
}

// appendMicros appends ns as a decimal microsecond value with exactly
// three fractional digits ("12.345") without going through float64.
func appendMicros(b []byte, ns int64) []byte {
	u := uint64(ns)
	if ns < 0 {
		b = append(b, '-')
		u = -u
	}
	b = strconv.AppendUint(b, u/1000, 10)
	frac := u % 1000
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// chromeKind is the pre-rendered, Kind-constant part of an event line.
// Which arguments a kind carries is static, so each key comes with the
// comma it needs.
type chromeKind struct {
	comp component
	span bool
	head string // `{"ph":"X","pid":` or `{"ph":"i","s":"t","pid":`
	mid  string // `,"name":"…","cat":"…","ts":`
	arg  string // `"pages":`, "" when Event.Arg is unused
	arg2 string // `,"probes":`, "" when Event.Arg2 is unused
	xfer string // `,"xfer":`
}

// chromeKinds is indexed by Kind; the extra last entry serves every
// Kind outside the taxonomy (a caller-built Event can carry one),
// rendered as an instant named "invalid" on the none track.
var chromeKinds = func() (tab [numKinds + 1]chromeKind) {
	for k := range tab {
		meta := kindMeta{name: "invalid", comp: compNone}
		if k < NumKinds {
			meta = kindMetas[k]
		}
		ck := chromeKind{
			comp: meta.comp, span: meta.span, head: `{"ph":"i","s":"t","pid":`,
			mid: `,"name":` + mustJSON(meta.name) + `,"cat":` + mustJSON(componentNames[meta.comp]) + `,"ts":`,
		}
		if meta.span {
			ck.head = `{"ph":"X","pid":`
		}
		comma := ""
		key := func(name string) (s string) {
			if name != "" {
				s, comma = comma+mustJSON(name)+":", ","
			}
			return s
		}
		ck.arg, ck.arg2, ck.xfer = key(meta.arg), key(meta.arg2), key("xfer")
		tab[k] = ck
	}
	return tab
}()

func chromeKindOf(k Kind) *chromeKind {
	return &chromeKinds[min(int(k), NumKinds)]
}

// chromeTrack is one (node, pid, component) thread of a run.
type chromeTrack struct {
	node, pid uint32
	comp      component
}

func (t chromeTrack) tid() int { return chromeTID(int(t.node), int(t.pid), t.comp) }

// chromeTracks appends the distinct tracks of run to tracks[:0], sorted
// by tid. A run has a handful — eight components times the processes
// of one node — so the list found so far is simply searched for each
// event.
func chromeTracks(tracks []chromeTrack, run Run) []chromeTrack {
	tracks = tracks[:0]
	for _, chunk := range run.Chunks() {
		for i := range chunk {
			ev := &chunk[i]
			t := chromeTrack{uint32(ev.Node), uint32(ev.PID), chromeKindOf(ev.Kind).comp}
			if !slices.Contains(tracks, t) {
				tracks = append(tracks, t)
			}
		}
	}
	sort.Slice(tracks, func(a, b int) bool { return tracks[a].tid() < tracks[b].tid() })
	return tracks
}

// chromeScratch is what one WriteChromeTrace call works in: the 64 KB
// output buffer, the line under construction and the track list. All
// of it dies when the call returns, so calls share it through a pool.
type chromeScratch struct {
	bw     *bufio.Writer
	line   []byte
	tracks []chromeTrack
}

var chromePool = sync.Pool{New: func() any {
	return &chromeScratch{
		bw:     bufio.NewWriterSize(nil, 1<<16),
		line:   make([]byte, 0, 256),
		tracks: make([]chromeTrack, 0, 16),
	}
}}

// WriteChromeTrace writes runs as Chrome trace_event JSON (the
// {"traceEvents": [...]} object form, loadable in Perfetto and
// chrome://tracing). Output is byte-deterministic for a given runs
// slice: run order is the caller's (Collector.Runs is label-sorted),
// metadata is emitted sorted, and events keep recording order.
func WriteChromeTrace(w io.Writer, runs []Run) error {
	sc := chromePool.Get().(*chromeScratch)
	bw, line := sc.bw, sc.line
	bw.Reset(w)
	bw.WriteString("{\"traceEvents\":[\n")
	sep := "" // before every entry but the first: ",\n"

	for i, run := range runs {
		// Process metadata: name the trace process after the run label.
		line = append(line[:0], sep...)
		sep = ",\n"
		line = append(line, `{"ph":"M","pid":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"tid":0,"name":"process_name","args":{"name":`...)
		line = append(line, mustJSON(run.Label)...)
		line = append(line, "}}"...)
		bw.Write(line)

		// Name the tracks before emitting their events. Component names
		// are plain identifiers, so quoting them needs no escaping.
		sc.tracks = chromeTracks(sc.tracks, run)
		for _, t := range sc.tracks {
			line = append(line[:0], ",\n"+`{"ph":"M","pid":`...)
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, `,"tid":`...)
			line = strconv.AppendInt(line, int64(t.tid()), 10)
			line = append(line, `,"name":"thread_name","args":{"name":"n`...)
			line = strconv.AppendUint(line, uint64(t.node), 10)
			line = append(line, "/p"...)
			line = strconv.AppendUint(line, uint64(t.pid), 10)
			line = append(line, '/')
			line = append(line, componentNames[t.comp]...)
			line = append(line, `"}}`...)
			bw.Write(line)
		}

		for _, chunk := range run.Chunks() {
			for j := range chunk {
				ev := &chunk[j]
				ck := chromeKindOf(ev.Kind)
				line = append(line[:0], ",\n"...)
				line = append(line, ck.head...)
				line = strconv.AppendInt(line, int64(i), 10)
				line = append(line, `,"tid":`...)
				line = strconv.AppendInt(line, int64(chromeTID(int(ev.Node), int(ev.PID), ck.comp)), 10)
				line = append(line, ck.mid...)
				line = appendMicros(line, int64(ev.Time))
				if ck.span {
					line = append(line, `,"dur":`...)
					line = appendMicros(line, int64(ev.Dur))
				}
				line = append(line, `,"args":{`...)
				if ck.arg != "" {
					line = append(line, ck.arg...)
					line = strconv.AppendUint(line, ev.Arg, 10)
				}
				if ck.arg2 != "" {
					line = append(line, ck.arg2...)
					line = strconv.AppendUint(line, ev.Arg2, 10)
				}
				// Transfer attribution rides along only when present, so
				// traces without ids keep their exact historical bytes.
				if ev.Xfer != 0 {
					line = append(line, ck.xfer...)
					line = strconv.AppendUint(line, ev.Xfer, 10)
				}
				line = append(line, "}}"...)
				bw.Write(line)
			}
		}
	}
	bw.WriteString("\n]}\n")
	err := bw.Flush()
	bw.Reset(nil) // the pool must not keep the caller's writer alive
	sc.line = line
	chromePool.Put(sc)
	return err
}

// mustJSON returns s as a JSON string literal.
func mustJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshalling a string cannot fail.
		panic(err)
	}
	return string(b)
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
