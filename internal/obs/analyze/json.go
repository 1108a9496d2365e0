package analyze

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"utlb/internal/obs"
)

// WriteJSON writes the report as indented JSON with a trailing
// newline: byte for byte what json.MarshalIndent(rep, "", "  ") makes
// of it (fields in struct order under their tag names, nil slices as
// null, omitempty fields left out when empty, strings HTML-safe), but
// written directly, into a buffer from a pool whose slot survives
// collections rather than from encoding/json's own, so a call
// allocates the same whenever the collector last ran. The encoding is
// deterministic: struct field order, sorted experiments, integer-only
// values.
func WriteJSON(w io.Writer, rep *Report) error {
	j := jsonPool.Get()
	j.b, j.depth, j.first = j.b[:0], 0, true
	j.value(reflect.ValueOf(rep).Elem())
	j.b = append(j.b, '\n')
	_, err := w.Write(j.b)
	if cap(j.b) <= maxPooledJSON {
		jsonPool.Put(j)
	}
	return err
}

// jsonWriter appends indented JSON to b. first is whether the object
// or array open at depth has no member yet.
type jsonWriter struct {
	b     []byte
	depth int
	first bool
}

var jsonPool obs.ScratchPool[jsonWriter]

// maxPooledJSON caps the buffer a pooled writer keeps: a t6 report at
// paper scale is about 45 KB.
const maxPooledJSON = 1 << 20

// value appends v, which holds only the kinds a Report is built of,
// in structs whose every field is exported and tagged with a plain
// name and at most omitempty; it panics on anything else, where its
// bytes could depart from encoding/json's.
func (j *jsonWriter) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		j.b = strconv.AppendInt(j.b, v.Int(), 10)
	case reflect.Uint64:
		j.b = strconv.AppendUint(j.b, v.Uint(), 10)
	case reflect.String:
		j.b = obs.AppendJSON(j.b, v.String())
	case reflect.Slice:
		if v.IsNil() {
			j.b = append(j.b, "null"...)
			return
		}
		j.open('[')
		for i := range v.Len() {
			j.member()
			j.value(v.Index(i))
		}
		j.close(']')
	case reflect.Struct:
		j.open('{')
		t := v.Type()
		for i := range t.NumField() {
			name, opt, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
			if !t.Field(i).IsExported() || name == "" || name == "-" || (opt != "" && opt != "omitempty") {
				// encoding/json would skip, rename or convert it.
				panic(fmt.Sprintf("analyze: field %s.%s has no plain JSON name", t, t.Field(i).Name))
			}
			if f := v.Field(i); opt != "omitempty" || !empty(f) {
				j.member()
				j.b = append(append(append(j.b, '"'), name...), `": `...)
				j.value(f)
			}
		}
		j.close('}')
	default:
		panic(fmt.Sprintf("analyze: no JSON form for %v", v.Type()))
	}
}

// empty is encoding/json's test for omitempty over these kinds: a
// zero number, or a string or slice of length 0. A struct is never
// empty.
func empty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String, reflect.Slice:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}

func (j *jsonWriter) open(c byte) {
	j.b = append(j.b, c)
	j.depth++
	j.first = true
}

// close ends the innermost object or array; an empty one stays on one
// line, as "{}" or "[]".
func (j *jsonWriter) close(c byte) {
	j.depth--
	if !j.first {
		j.newline()
	}
	j.b = append(j.b, c)
	j.first = false
}

// member starts the next member of the innermost object or array on a
// line of its own.
func (j *jsonWriter) member() {
	if !j.first {
		j.b = append(j.b, ',')
	}
	j.first = false
	j.newline()
}

func (j *jsonWriter) newline() {
	j.b = append(j.b, '\n')
	for range j.depth {
		j.b = append(j.b, "  "...)
	}
}
