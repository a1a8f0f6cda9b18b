package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cyclesteal/internal/jsonl"
)

// csvMagic is the first field of a CSV trace's header record.
const csvMagic = "cyclesteal-trace"

// jsonFormat is the "format" value of a JSONL trace's header line.
const jsonFormat = "cyclesteal-trace"

// maxLine caps the bytes of one line of a trace, its line ending aside, in
// either encoding, so a corrupt or hostile file cannot make a reader buffer
// without end: jsonl.MaxLine, the cap the service WAL and the distrib wire
// frames share.
var maxLine = jsonl.MaxLine

// scanLines reads r one line at a time, calling fn with the 1-based line
// number and the line without its line ending, and skipping blank lines. A
// line over maxLine is an error naming it; the scanner holds at most a full
// line and its "\r\n".
func scanLines(r io.Reader, fn func(n int, line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine+len("\r\n"))
	n := 0
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) > maxLine {
			return fmt.Errorf("trace: line %d: %w", n, bufio.ErrTooLong)
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := fn(n, line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: line %d: %w", n+1, err)
	}
	return nil
}

// maxInterruptsPerRow bounds the ';'-separated interrupt list a single CSV
// field may carry, so a malformed row cannot make the parser build an
// absurd slice. The allowance check in Validate is the real bound; this one
// only has to be generous enough to never reject a legitimate trace.
const maxInterruptsPerRow = 1 << 20

// WriteCSV encodes the trace as CSV: the magic header record, a column-name
// row, then one row per opportunity with ';'-separated interrupt offsets.
func WriteCSV(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := [][]string{
		{csvMagic, strconv.Itoa(FormatVersion), strconv.Itoa(t.TicksPerSetup)},
		{"station", "lifespan", "allowance", "interrupts"},
	}
	for _, rec := range header {
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	for i := range t.Opportunities {
		o := &t.Opportunities[i]
		parts := make([]string, len(o.Interrupts))
		for j, at := range o.Interrupts {
			parts[j] = strconv.FormatInt(at, 10)
		}
		row := []string{
			strconv.Itoa(o.Station),
			strconv.FormatInt(o.Lifespan, 10),
			strconv.Itoa(o.Allowance),
			strings.Join(parts, ";"),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a trace written by WriteCSV, one record per line: a
// record may not span lines, and a line over the cap is an error naming its
// row. Blank lines, and whitespace before the header, are skipped.
// Malformed input returns an error; it never panics.
func ReadCSV(r io.Reader) (*Trace, error) {
	var src bytes.Reader
	cr := csv.NewReader(&src)
	cr.FieldsPerRecord = -1 // the header records have their own widths
	var t *Trace
	rows := 0
	err := scanLines(r, func(row int, line []byte) error {
		if rows == 0 {
			line = bytes.TrimLeft(line, " \t\r") // whitespace before the header, as Read skips it
		}
		src.Reset(line)
		rec, err := cr.Read()
		if err != nil {
			var perr *csv.ParseError
			if errors.As(err, &perr) { // its line counts records, not lines
				return fmt.Errorf("trace: row %d, column %d: %w", row, perr.Column, perr.Err)
			}
			return fmt.Errorf("trace: row %d: %w", row, err)
		}
		rows++
		switch rows {
		case 1:
			if len(rec) != 3 || rec[0] != csvMagic {
				return fmt.Errorf("trace: not a %s csv file", csvMagic)
			}
			version, err := strconv.Atoi(rec[1])
			if err != nil || version != FormatVersion {
				return fmt.Errorf("trace: unsupported format version %q (want %d)", rec[1], FormatVersion)
			}
			ticks, err := strconv.Atoi(rec[2])
			if err != nil {
				return fmt.Errorf("trace: header ticks per setup: %w", err)
			}
			t = &Trace{TicksPerSetup: ticks}
			return nil
		case 2:
			return nil // the column-name row
		}
		if len(rec) != 4 {
			return fmt.Errorf("trace: row %d has %d fields, want 4", row, len(rec))
		}
		o := Opportunity{}
		if o.Station, err = strconv.Atoi(rec[0]); err != nil {
			return fmt.Errorf("trace: row %d station: %w", row, err)
		}
		if o.Lifespan, err = strconv.ParseInt(rec[1], 10, 64); err != nil {
			return fmt.Errorf("trace: row %d lifespan: %w", row, err)
		}
		if o.Allowance, err = strconv.Atoi(rec[2]); err != nil {
			return fmt.Errorf("trace: row %d allowance: %w", row, err)
		}
		if rec[3] != "" {
			// Counted before splitting: Split of an over-long list would
			// build the absurd slice the bound is there to refuse.
			if n := strings.Count(rec[3], ";") + 1; n > maxInterruptsPerRow {
				return fmt.Errorf("trace: row %d has %d interrupts", row, n)
			}
			parts := strings.Split(rec[3], ";")
			o.Interrupts = make([]int64, len(parts))
			for j, part := range parts {
				if o.Interrupts[j], err = strconv.ParseInt(part, 10, 64); err != nil {
					return fmt.Errorf("trace: row %d interrupt %d: %w", row, j+1, err)
				}
			}
		}
		t.Opportunities = append(t.Opportunities, o)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rows < 2 {
		return nil, fmt.Errorf("trace: csv too short: need the magic and column headers")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// jsonHeader is the first line of a JSONL trace.
type jsonHeader struct {
	Format        string `json:"format"`
	Version       int    `json:"version"`
	TicksPerSetup int    `json:"ticks_per_setup"`
}

// jsonOpportunity is one JSONL opportunity line.
type jsonOpportunity struct {
	Station    int     `json:"station"`
	Lifespan   int64   `json:"lifespan"`
	Allowance  int     `json:"allowance"`
	Interrupts []int64 `json:"interrupts,omitempty"`
}

// WriteJSONL encodes the trace as JSON Lines: a header object, then one
// object per opportunity.
func WriteJSONL(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w) // Encode appends the newline JSONL needs
	if err := enc.Encode(jsonHeader{Format: jsonFormat, Version: FormatVersion, TicksPerSetup: t.TicksPerSetup}); err != nil {
		return err
	}
	for i := range t.Opportunities {
		o := &t.Opportunities[i]
		if err := enc.Encode(jsonOpportunity{
			Station: o.Station, Lifespan: o.Lifespan, Allowance: o.Allowance, Interrupts: o.Interrupts,
		}); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL decodes a trace written by WriteJSONL: one JSON object per
// line, decoded strictly by jsonl.Unmarshal, so an unknown field, a second
// value on a line or an object split across lines is an error naming its
// line, as is a line over the cap. Blank lines are skipped. Malformed input
// returns an error; it never panics.
func ReadJSONL(r io.Reader) (*Trace, error) {
	var t *Trace
	err := scanLines(r, func(n int, line []byte) error {
		if t == nil {
			var head jsonHeader
			if err := jsonl.Unmarshal(line, &head); err != nil {
				return fmt.Errorf("trace: jsonl line %d: header: %w", n, err)
			}
			if head.Format != jsonFormat {
				return fmt.Errorf("trace: not a %s jsonl file", jsonFormat)
			}
			if head.Version != FormatVersion {
				return fmt.Errorf("trace: unsupported format version %d (want %d)", head.Version, FormatVersion)
			}
			t = &Trace{TicksPerSetup: head.TicksPerSetup}
			return nil
		}
		var o jsonOpportunity
		if err := jsonl.Unmarshal(line, &o); err != nil {
			return fmt.Errorf("trace: jsonl line %d: %w", n, err)
		}
		t.Opportunities = append(t.Opportunities, Opportunity{
			Station: o.Station, Lifespan: o.Lifespan, Allowance: o.Allowance, Interrupts: o.Interrupts,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("trace: jsonl has no header line")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Read decodes a trace in either encoding, sniffing the first non-space
// byte: '{' means JSONL, anything else CSV. The sniff only peeks, so the
// chosen reader sees, and bounds, every line.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	for i := 0; ; i++ {
		b, err := br.Peek(i + 1)
		if errors.Is(err, bufio.ErrBufferFull) {
			return ReadCSV(br) // a sniff window of whitespace
		}
		if err != nil {
			return nil, fmt.Errorf("trace: empty input")
		}
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			return ReadJSONL(br)
		}
		return ReadCSV(br)
	}
}
