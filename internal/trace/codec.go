package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"utlb/internal/core"
	"utlb/internal/units"
)

// Binary format: a magic header followed by fixed 32-byte little-endian
// records. The format is versioned so archived traces stay readable.
const (
	magic   = "UTLBTRC1"
	recSize = 32
)

// check reports why r cannot be replayed, or nil: the readers refuse
// such a record by name instead of letting a replay panic on it.
func (r Record) check() error {
	first := r.VA.PageOf()
	switch {
	case r.Op != Send && r.Op != Fetch:
		return fmt.Errorf("unknown op %d", uint8(r.Op))
	case r.Bytes < 0:
		return fmt.Errorf("negative size %d", r.Bytes)
	case first >= core.VASpacePages ||
		uint64(first)+uint64(units.PagesSpanned(r.VA, int(r.Bytes))) > core.VASpacePages:
		return fmt.Errorf("buffer %#x+%d outside the %d-page address space", uint64(r.VA), r.Bytes, core.VASpacePages)
	}
	return nil
}

// WriteBinary encodes t to w in the binary trace format.
func WriteBinary(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var buf [recSize]byte
	for _, r := range t {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Time))
		binary.LittleEndian.PutUint32(buf[8:], uint32(r.Node))
		binary.LittleEndian.PutUint32(buf[12:], uint32(r.PID))
		buf[16] = byte(r.Op)
		// bytes 17-23 reserved
		for i := 17; i < 24; i++ {
			buf[i] = 0
		}
		binary.LittleEndian.PutUint32(buf[20:], uint32(r.Bytes))
		binary.LittleEndian.PutUint64(buf[24:], uint64(r.VA))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a binary trace from r. A record that cannot be
// replayed (see Record.check) is an error naming it.
func ReadBinary(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	var out Trace
	var buf [recSize]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: truncated record %d: %w", len(out), err)
		}
		rec := Record{
			Time:  units.Time(binary.LittleEndian.Uint64(buf[0:])),
			Node:  units.NodeID(binary.LittleEndian.Uint32(buf[8:])),
			PID:   units.ProcID(binary.LittleEndian.Uint32(buf[12:])),
			Op:    Op(buf[16]),
			Bytes: int32(binary.LittleEndian.Uint32(buf[20:])),
			VA:    units.VAddr(binary.LittleEndian.Uint64(buf[24:])),
		}
		if err := rec.check(); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// WriteText encodes t as one whitespace-separated record per line:
//
//	<time-ns> <node> <pid> <op> <va-hex> <bytes>
func WriteText(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t {
		if _, err := fmt.Fprintf(bw, "%d %d %d %s %#x %d\n",
			r.Time, r.Node, r.PID, r.Op, uint64(r.VA), r.Bytes); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes the text format; blank lines and #-comments are
// skipped. A record that cannot be replayed is an error naming its line.
func ReadText(r io.Reader) (Trace, error) {
	var out Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var (
			t           int64
			va          uint64
			node, pid   uint32
			opStr       string
			bytesParsed int32
		)
		if _, err := fmt.Sscanf(line, "%d %d %d %s %v %d",
			&t, &node, &pid, &opStr, &va, &bytesParsed); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		var op Op
		switch opStr {
		case "send":
			op = Send
		case "fetch":
			op = Fetch
		default:
			return nil, fmt.Errorf("trace: line %d: unknown op %q", lineNo, opStr)
		}
		rec := Record{
			Time:  units.Time(t),
			Node:  units.NodeID(node),
			PID:   units.ProcID(pid),
			Op:    op,
			VA:    units.VAddr(va),
			Bytes: bytesParsed,
		}
		if err := rec.check(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
