// Package jsonl holds the JSON pieces the repository's line formats share:
// the line cap and the strict decode the service write-ahead log and the
// distrib wire frames both apply, and a float-array codec that writes
// exactly encoding/json's bytes and reads exactly its values, without
// reflection.
//
// encoding/json stays the definition of every format: it matches keys and
// refuses unknown fields, and it checks the syntax of everything but the
// arrays Numbers reads, which checks a number array's syntax itself. The
// tests pin each function here against encoding/json byte for byte and
// value for value.
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

// Floats is a []float64 that decodes from JSON without reflection. Its
// UnmarshalJSON reads a value encoding/json has already checked and yields
// exactly what decoding into a []float64 yields: nil for null, a non-nil
// empty slice for [], 0 for a null element of a fresh slice, and an error —
// not worded the same — for a non-array, a non-number element or a number
// out of float64 range. Decode a field through it by giving a shadow struct
// a Floats field of the same JSON name.
type Floats []float64

// pow10 holds the powers of ten parseNumber divides by: exact float64s.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Floats) UnmarshalJSON(data []byte) error {
	switch {
	case len(data) == 0:
		return fmt.Errorf("jsonl: empty JSON value")
	case data[0] == 'n':
		*f = nil
		return nil
	case data[0] != '[':
		return fmt.Errorf("jsonl: cannot decode %s into a number array", kind(data[0]))
	}
	i := skipSpace(data, 1)
	if i < len(data) && data[i] == ']' {
		*f = Floats{}
		return nil
	}
	// encoding/json decodes into the storage of the slice already there,
	// and a null element leaves that storage as it was — which shows only
	// when a key repeats. Keep it, with room for every element: data has
	// passed encoding/json's syntax check, so each comma separates two.
	buf := (*f)[:cap(*f)]
	if n := bytes.Count(data, []byte{','}) + 1; len(buf) < n {
		buf = append(make([]float64, 0, n), buf...)[:n]
	}
	fs, err := readElements(buf, data)
	if err != nil {
		return err
	}
	*f = fs
	return nil
}

// Numbers reads the JSON array of numbers data starts with and returns its
// values and its length in bytes; what follows the array is not read. It
// is strict: it accepts JSON-grammar numbers separated by commas, with
// JSON whitespace between tokens, and refuses a null or nested element, a
// number outside float64's range and any other byte. An accepted array
// yields exactly what encoding/json decodes into a []float64, a non-nil
// empty slice for [] included. It checks the whole array before it
// allocates, so a long run of commas costs no memory.
func Numbers(data []byte) ([]float64, int, error) {
	n, end, err := scanNumbers(data)
	if err != nil {
		return nil, 0, err
	}
	fs, err := readElements(make([]float64, n), data[:end])
	if err != nil {
		return nil, 0, err
	}
	return fs, end, nil
}

// scanNumbers checks that data starts with a JSON array of JSON-grammar
// numbers and returns how many it holds and the index just past it.
func scanNumbers(data []byte) (n, end int, err error) {
	if len(data) == 0 || data[0] != '[' {
		return 0, 0, fmt.Errorf("jsonl: not a JSON array")
	}
	i := skipSpace(data, 1)
	if i < len(data) && data[i] == ']' {
		return 0, i + 1, nil
	}
	for {
		j := numberEnd(data, i)
		if j < 0 {
			return 0, 0, fmt.Errorf("jsonl: element %d is not a JSON number", n)
		}
		n++
		if i = skipSpace(data, j); i == len(data) {
			return 0, 0, fmt.Errorf("jsonl: unterminated number array")
		}
		switch data[i] {
		case ']':
			return n, i + 1, nil
		case ',':
			i = skipSpace(data, i+1)
		default:
			return 0, 0, fmt.Errorf("jsonl: element %d is not followed by a comma or the array's end", n-1)
		}
	}
}

// numberEnd returns the index just past the JSON number at data[i], or −1
// when none starts there: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
func numberEnd(data []byte, i int) int {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digitsEnd(data, i)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i = digitsEnd(data, i+1); data[i-1] == '.' {
			return -1
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digitsEnd(data, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// digitsEnd returns the index of the first non-digit at or after data[i].
func digitsEnd(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// readElements converts the elements of data, a well-formed JSON array,
// into buf, growing it as needed, and returns buf cut to the element count.
// A null element leaves its slot of buf as it was; a non-number element is
// an error. It is the element loop Floats.UnmarshalJSON and Numbers share.
func readElements(buf []float64, data []byte) ([]float64, error) {
	i := skipSpace(data, 1)
	n := 0
	for i < len(data) && data[i] != ']' {
		if n == len(buf) {
			buf = append(buf, 0)
		}
		switch c := data[i]; {
		case c == 'n':
			i += len("null")
		case c == '-' || '0' <= c && c <= '9':
			v, j, err := parseNumber(data, i)
			if err != nil {
				return nil, fmt.Errorf("jsonl: element %d: %w", n, err)
			}
			buf[n] = v
			i = j
		default:
			return nil, fmt.Errorf("jsonl: element %d: cannot decode %s into a number", n, kind(c))
		}
		n++
		if i = skipSpace(data, i); i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
		}
	}
	if i >= len(data) {
		return nil, fmt.Errorf("jsonl: unterminated number array")
	}
	return buf[:n], nil
}

// parseNumber converts the JSON number token at data[i], which runs to the
// first byte no number holds, as strconv.ParseFloat does, and returns the
// index just past it. At most 15 digits with no sign or exponent take
// strconv's own exact path inline: the digits are an exact float64, and so
// is the power of ten the point divides them by, so one correctly rounded
// IEEE division gives the correctly rounded value.
func parseNumber(data []byte, i int) (float64, int, error) {
	var mant uint64
	digits, frac := 0, 0
	point, inline := false, true
	j := i
	for ; j < len(data); j++ {
		c := data[j]
		if '0' <= c && c <= '9' {
			if digits++; digits > 15 {
				inline = false
			}
			mant = mant*10 + uint64(c-'0')
			if point {
				frac++
			}
		} else if c == '.' {
			point = true
		} else if c == '-' || c == '+' || c == 'e' || c == 'E' {
			inline = false
		} else {
			break
		}
	}
	if !inline {
		v, err := strconv.ParseFloat(string(data[i:j]), 64)
		return v, j, err
	}
	return float64(mant) / pow10[frac], j, nil
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	return i
}

// kind names the JSON value that starts with c.
func kind(c byte) string {
	switch c {
	case '"':
		return "a string"
	case '{':
		return "an object"
	case '[':
		return "an array"
	case 't', 'f':
		return "a boolean"
	default:
		return "a number"
	}
}
