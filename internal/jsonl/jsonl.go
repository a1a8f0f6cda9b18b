// Package jsonl holds the JSON pieces the repository's line formats share:
// the line cap and the strict decode the service write-ahead log and the
// distrib wire frames both apply, and a float encoder that writes exactly
// encoding/json's bytes without reflection, for the WAL's task arrays.
//
// encoding/json stays the definition of every format: it matches keys,
// refuses unknown fields and checks the syntax of everything these
// readers take. The tests pin each encoder here against encoding/json
// byte for byte.
package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// MaxLine caps one line of the repository's JSONL formats — a distrib wire
// frame or a service WAL record — so a corrupt or hostile stream cannot
// make a reader buffer without end. A shard frame carries full accumulator
// states and a WAL submit record a whole job's durations, so the cap is
// generous: 256 MiB.
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

// AppendFloats appends fs as encoding/json writes a non-nil []float64 of
// finite values ("[]" when empty); the caller checks finiteness. A value
// equal to its predecessor copies the predecessor's bytes instead of
// formatting them again, so runs of equal values cost a copy each.
func AppendFloats(dst []byte, fs []float64) []byte {
	if len(fs) == 0 {
		return append(dst, "[]"...)
	}
	start := len(dst) + 1 // the previous value's bytes are dst[start:end]
	dst = AppendFloat(append(dst, '['), fs[0])
	end := len(dst)
	// Room for every value as long as the first: exact for one value.
	dst = slices.Grow(dst, (end-start+1)*(len(fs)-1)+1)
	for i := 1; i < len(fs); i++ {
		dst = append(dst, ',')
		if math.Float64bits(fs[i]) == math.Float64bits(fs[i-1]) {
			dst = append(dst, dst[start:end]...)
			continue
		}
		start = len(dst)
		dst = AppendFloat(dst, fs[i])
		end = len(dst)
	}
	return append(dst, ']')
}

// AppendFloat appends a finite f as encoding/json formats a float64: the
// ES6 number-to-string conversion, %f from 1e-6 up to 1e21 and %e beyond,
// with a one-digit negative exponent unpadded (1e-7, not 1e-07).
//
// A short decimal is written without strconv: a positive f below 1e9 that
// IEEE division of m = round(f·10^6) by 10^6 gives back. Below 1e9, m stays
// under 2^50, so decimals with at most six fractional digits lie more than
// an ulp of f apart: m·10^-6 is the one such decimal that rounds to f, no
// decimal with fewer digits does, and with its trailing zeros dropped it is
// the shortest round-tripping form strconv prints. Everything else — zero,
// negative values, the exponent forms, long mantissas — goes through
// strconv.
func AppendFloat(dst []byte, f float64) []byte {
	if f > 0 && f < 1e9 {
		if m := math.Round(f * 1e6); m/1e6 == f {
			return appendMicros(dst, uint64(m))
		}
	}
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// appendMicros appends m·10^-6 in positional notation, without trailing
// fractional zeros.
func appendMicros(dst []byte, m uint64) []byte {
	dst = strconv.AppendUint(dst, m/1e6, 10)
	frac := m % 1e6
	if frac == 0 {
		return dst
	}
	var b [7]byte // the point and six digits
	b[0] = '.'
	for i := 6; i > 0; i-- {
		b[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := len(b)
	for b[n-1] == '0' {
		n--
	}
	return append(dst, b[:n]...)
}
