// Package jsonl holds the JSON pieces the repository's line formats share:
// the line cap the service write-ahead log, the distrib wire frames and the
// trace readers apply (MaxLine), the strict decode the WAL and the wire
// both apply (Unmarshal), and the one encoder for their tick arrays
// (AppendInt64s), which writes exactly encoding/json's bytes without
// reflection. The WAL and the wire carry a job as integer ticks on the grid
// their header or spec names, so no float codec is needed: the rare float
// field goes through encoding/json itself.
//
// encoding/json stays the definition of every format: it matches keys,
// refuses unknown fields and checks the syntax of everything these
// readers take. The tests pin the encoder against encoding/json byte for
// byte.
package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// MaxLine caps one line of the repository's JSONL formats — a distrib wire
// frame or a service WAL record — so a corrupt or hostile stream cannot
// make a reader buffer without end. A shard frame carries full accumulator
// states, and a study frame or a WAL submit record a whole job's ticks, so
// the cap is generous: 256 MiB.
const MaxLine = 1 << 28

// Unmarshal decodes the one JSON value in data into v strictly: an object
// field v has no place for is an error, and so is any byte after the value
// other than JSON whitespace (space, tab, CR and LF). A corrupt or foreign
// line fails loudly, not quietly.
func Unmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	for _, c := range data[dec.InputOffset():] {
		if !isSpace(c) {
			return fmt.Errorf("trailing data after the JSON value")
		}
	}
	return nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// AppendInt64s appends vs as encoding/json writes a non-nil []int64 ("[]"
// when empty). A value equal to its predecessor copies the predecessor's
// bytes instead of formatting them again, so the runs of equal ticks a
// job of equal tasks quantizes to cost a copy each.
func AppendInt64s(dst []byte, vs []int64) []byte {
	if len(vs) == 0 {
		return append(dst, "[]"...)
	}
	start := len(dst) + 1 // the previous value's bytes are dst[start:end]
	dst = strconv.AppendInt(append(dst, '['), vs[0], 10)
	end := len(dst)
	// Room for every value as long as the first: exact for one value.
	dst = slices.Grow(dst, (end-start+1)*(len(vs)-1)+1)
	for i := 1; i < len(vs); i++ {
		dst = append(dst, ',')
		if vs[i] == vs[i-1] {
			dst = append(dst, dst[start:end]...)
			continue
		}
		start = len(dst)
		dst = strconv.AppendInt(dst, vs[i], 10)
		end = len(dst)
	}
	return append(dst, ']')
}
