// Package jsonl holds the pieces the repository's line formats share: the
// one line reader of the availability trace, the service write-ahead log
// and the distrib wire (Lines), under the cap the three apply (MaxLine);
// the header the trace and the WAL start with, and its one check (Header,
// ReadLog); the strict decode (Unmarshal); and the one encoder for the
// WAL's and the wire's tick arrays (AppendInt64s), which writes exactly
// encoding/json's bytes without reflection. The rare float field goes
// through encoding/json itself.
//
// The cap does not count the line ending (LF or CRLF): a line of exactly
// the cap is read, and a longer one is an error naming its 1-based number.
// A blank line is JSON whitespace only; the trace and the WAL skip it, and
// the wire's strict decode refuses it.
//
// encoding/json stays the definition of every format: it matches keys,
// refuses unknown fields and checks the syntax of everything these
// readers take. The tests pin the encoder against encoding/json byte for
// byte.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// MaxLine caps one line of the repository's JSONL formats — a trace
// record, a distrib wire frame or a service WAL record — so a corrupt or
// hostile stream cannot make a reader buffer without end. A shard frame
// carries full accumulator states, and a study frame or a WAL submit record
// a whole job's ticks, so the cap is generous: 256 MiB.
const MaxLine = 1 << 28

// Lines reads a stream one line at a time under a line cap. It takes LF
// and CRLF endings and an unterminated last line, and holds at most one
// line and its ending.
type Lines struct {
	sc  *bufio.Scanner
	max int
	n   int // the number of the line Next last returned or failed on
}

// NewLines returns a reader of r's lines, each at most max bytes without
// its line ending.
func NewLines(r io.Reader, max int) *Lines {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, max+len("\r\n"))
	return &Lines{sc: sc, max: max}
}

// Next returns the next line without its ending, valid until the next
// call, or io.EOF after the last line. A line over the cap, or a read that
// fails, is an error naming the line.
func (l *Lines) Next() ([]byte, error) {
	l.n++
	ok := l.sc.Scan()
	if line := l.sc.Bytes(); ok && len(line) <= l.max {
		return line, nil
	}
	// A line scanned whole but over the cap, or one the scanner could not
	// hold with its ending, is too long.
	switch err := l.sc.Err(); {
	case ok || errors.Is(err, bufio.ErrTooLong):
		return nil, fmt.Errorf("line %d: too long: over the %d-byte cap", l.n, l.max)
	case err != nil:
		return nil, fmt.Errorf("line %d: %w", l.n, err)
	}
	return nil, io.EOF
}

// Header is the first line of the two files that start with one, the
// availability trace and the service WAL: the format's name, its version,
// and the tick grid its integers are on.
type Header struct {
	Format        string `json:"format"`
	Version       int    `json:"version"`
	TicksPerSetup int    `json:"ticks_per_setup"`
}

// ReadLog reads a log of format at version, each line at most max bytes:
// a Header, then one record a line, each handed whole to record. Blank
// lines are skipped but counted. The header is decoded strictly and must
// name format at version, on a grid of at least one tick per setup. Any
// error, record's included, names its line.
func ReadLog(r io.Reader, max int, format string, version int, record func(line []byte) error) (Header, error) {
	lines := NewLines(r, max)
	var h Header // h.Format is set once the header is read
	for {
		line, err := lines.Next()
		switch {
		case err == io.EOF && h.Format == "":
			return Header{}, errors.New("missing header")
		case err == io.EOF:
			return h, nil
		case err != nil:
			return Header{}, err
		case blank(line):
			continue
		case h.Format == "":
			err = h.check(line, format, version)
		default:
			err = record(line)
		}
		if err != nil {
			return Header{}, fmt.Errorf("line %d: %w", lines.n, err)
		}
	}
}

// check decodes line into h strictly and checks it names format at
// version, on a grid of at least one tick per setup.
func (h *Header) check(line []byte, format string, version int) error {
	if err := Unmarshal(line, h); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	switch {
	case h.Format != format:
		return fmt.Errorf("format %q, want %q", h.Format, format)
	case h.Version != version:
		return fmt.Errorf("log version %d, but this build reads version %d", h.Version, version)
	case h.TicksPerSetup < 1:
		return fmt.Errorf("ticks_per_setup must be ≥ 1, got %d", h.TicksPerSetup)
	}
	return nil
}

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
	if !blank(data[dec.InputOffset():]) {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// blank reports whether b holds JSON whitespace only: space, tab, CR and
// LF.
func blank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

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
