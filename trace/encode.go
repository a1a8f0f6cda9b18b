package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"cyclesteal/internal/jsonl"
)

// jsonFormat is the "format" value of a trace's header line.
const jsonFormat = "cyclesteal-trace"

// maxLine caps the bytes of one line of a trace, its line ending aside, so
// a corrupt or hostile file cannot make a reader buffer without end:
// jsonl.MaxLine, the cap the service WAL and the distrib wire frames share.
var maxLine = jsonl.MaxLine

// WriteJSONL encodes the trace as JSON Lines: a header object, then one
// object per opportunity, in Opportunity's JSON form.
func WriteJSONL(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w) // Encode appends the newline JSONL needs
	if err := enc.Encode(jsonl.Header{Format: jsonFormat, Version: FormatVersion, TicksPerSetup: t.TicksPerSetup}); err != nil {
		return err
	}
	for i := range t.Opportunities {
		if err := enc.Encode(&t.Opportunities[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL decodes a trace written by WriteJSONL through jsonl.ReadLog,
// the reader the service WAL shares: one JSON object per line, decoded
// strictly, so an unknown field, a second value on a line, an object split
// across lines or a line over the cap is an error naming its line, and so
// is a header of another format or version. Blank lines, of JSON
// whitespace only, are skipped. Malformed input returns an error; it never
// panics.
func ReadJSONL(r io.Reader) (*Trace, error) {
	t := &Trace{}
	head, err := jsonl.ReadLog(r, maxLine, jsonFormat, FormatVersion, func(line []byte) error {
		var o Opportunity
		if err := jsonl.Unmarshal(line, &o); err != nil {
			return err
		}
		t.Opportunities = append(t.Opportunities, o)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	t.TicksPerSetup = head.TicksPerSetup
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
