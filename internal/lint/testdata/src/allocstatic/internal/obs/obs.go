// Package obs shows the recorded-run entry points of allocstatic:
// their cost is per event, so a fmt call, a closure or a map inside
// them is paid tens of thousands of times a run.
package obs

import (
	"fmt"
	"io"
	"strconv"
)

type Event struct {
	Time int64
	Arg  uint64
	Kind uint8
}

type Run struct {
	Label  string
	Events []Event
}

// Recorder is what the layers record into.
type Recorder interface{ Record(Event) }

type Buffer struct{ events []Event }

// Record is a hot entry point; appending to the buffer's own field is
// the whole of its work, and clean.
func (b *Buffer) Record(ev Event) { b.events = append(b.events, ev) }

// WriteChromeTrace is a hot entry point: the fmt call and the
// argument-writing closure are the per-event positives; the integer
// appends into a caller-sized line buffer are the clean form.
func WriteChromeTrace(w io.Writer, runs []Run) error {
	line := make([]byte, 0, 256)
	for i, run := range runs {
		for _, ev := range run.Events {
			fmt.Fprintf(w, `{"pid":%d,"ts":%d,"args":{`, i, ev.Time)
			first := true
			writeArg := func(name string, v uint64) {
				if !first {
					io.WriteString(w, ",")
				}
				first = false
				io.WriteString(w, name)
			}
			writeArg(`"arg":`, ev.Arg)

			line = append(line[:0], `{"pid":`...)
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, "}}\n"...)
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
	}
	return nil
}
