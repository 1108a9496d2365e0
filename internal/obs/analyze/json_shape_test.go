package analyze

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestWriterFieldShapes holds the writer to json.MarshalIndent on the
// omitempty cases a Report does not exercise today (an empty but
// non-nil slice, an empty string, a zero struct), and makes it panic
// on a field whose bytes encoding/json would make differently.
func TestWriterFieldShapes(t *testing.T) {
	type inner struct {
		N int64 `json:"n"`
	}
	type shapes struct {
		EmptySlice []int64 `json:"empty_slice,omitempty"`
		NilSlice   []int64 `json:"nil_slice,omitempty"`
		Slice      []int64 `json:"slice,omitempty"`
		Str        string  `json:"str,omitempty"`
		Zero       inner   `json:"zero,omitempty"`
		Num        uint64  `json:"num,omitempty"`
		Kept       []int64 `json:"kept"`
	}
	for _, v := range []shapes{
		{EmptySlice: []int64{}, Kept: []int64{}},
		{Slice: []int64{1, -2}, Str: "<&>", Zero: inner{3}, Num: 4},
		{},
	} {
		var j jsonWriter
		j.first = true
		j.value(reflect.ValueOf(v))
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(j.b) != string(want) {
			t.Errorf("%+v:\ngot  %s\nwant %s", v, j.b, want)
		}
	}

	type untagged struct{ N int64 }
	type dash struct {
		N int64 `json:"-"`
	}
	type unexported struct{ n int64 }
	type asString struct {
		N int64 `json:"n,string"`
	}
	for _, v := range []any{untagged{}, dash{}, unexported{}, asString{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: written, want a panic", v)
				}
			}()
			var j jsonWriter
			j.value(reflect.ValueOf(v))
		}()
	}
}
