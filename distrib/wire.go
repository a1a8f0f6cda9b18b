package distrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"cyclesteal/fleet"
	"cyclesteal/internal/jsonl"
)

// The wire format, versioned like the trace and WAL formats: JSONL frames,
// one JSON object per line, every object carrying its kind in "frame".
// The conversation on one connection is
//
//	worker → coordinator   {"frame":"hello","format":"cyclesteal-distrib","version":2}
//	coordinator → worker   {"frame":"study","format":...,"version":2,"spec":{...,"tasks":[237,50,...],"trials":16}}
//	coordinator → worker   {"frame":"assign","shards":[0,7,...]}
//	worker → coordinator   {"frame":"progress","done":12,"total":40}   (repeated)
//	worker → coordinator   {"frame":"shard","shard":{"shard":0,"metrics":[...]}} (one per shard)
//	worker → coordinator   {"frame":"done","shards":[0,7,...]}
//	worker → coordinator   {"frame":"error","error":"..."}             (instead of shard/done)
//
// assign/answer rounds repeat until the coordinator closes the connection.
// Decoding is strict: unknown fields, any byte after a frame's object but
// JSON whitespace, unknown kinds, out-of-range shard IDs and structurally
// invalid accumulator states are errors, never guesses, and so is a blank
// line, or a line over jsonl.MaxLine bytes, its ending aside: the cap the
// service WAL and the trace share, read by the same jsonl.Lines, whose
// error names the line's number on the connection. A frame line is
// exactly json.Marshal's bytes for its Frame and a newline. The study
// spec's job crosses once, as integer ticks on the grid the spec names
// (version 1 carried caller-unit floats); the coordinator writes the tick
// array with jsonl.AppendInt64s, as the service WAL writes its jobs, and a
// worker reads it with one strict integer reader (see ParseFrame). A
// version bump is required for any change to the frame shapes, the study
// shard count, or the trial→shard assignment rule; a frame of another
// version is refused with an error naming both.
const (
	wireFormat  = "cyclesteal-distrib"
	wireVersion = 2
)

// Frame kinds.
const (
	FrameHello    = "hello"
	FrameStudy    = "study"
	FrameAssign   = "assign"
	FrameProgress = "progress"
	FrameShard    = "shard"
	FrameDone     = "done"
	FrameError    = "error"
)

// Frame is the single wire envelope: Kind says which of the optional
// fields travel. See the package's wire-format notes for the conversation.
type Frame struct {
	// Kind is the frame kind, one of the Frame* constants.
	Kind string `json:"frame"`
	// Format and Version identify the protocol on hello and study frames.
	Format  string `json:"format,omitempty"`
	Version int    `json:"version,omitempty"`
	// Spec is the study description (study frames).
	Spec *Spec `json:"spec,omitempty"`
	// Shards lists shard IDs: the assignment (assign) or the completed
	// assignment being acknowledged (done).
	Shards []int `json:"shards,omitempty"`
	// Done and Total are trials completed and owed within the current
	// assignment (progress frames).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Shard is one completed shard's accumulator states (shard frames).
	Shard *fleet.ShardResult `json:"shard,omitempty"`
	// Error is the worker's failure report (error frames).
	Error string `json:"error,omitempty"`
}

// validate checks the kind-specific shape invariants.
func (f Frame) validate() error {
	switch f.Kind {
	case FrameHello, FrameStudy:
		if f.Format != wireFormat {
			return fmt.Errorf("distrib: format %q, want %q", f.Format, wireFormat)
		}
		if f.Version != wireVersion {
			return versionError(f.Version)
		}
		if f.Kind == FrameStudy {
			if f.Spec == nil {
				return fmt.Errorf("distrib: study frame carries no spec")
			}
			return f.Spec.Validate()
		}
	case FrameAssign, FrameDone:
		if len(f.Shards) == 0 {
			return fmt.Errorf("distrib: %s frame names no shards", f.Kind)
		}
		seen := make(map[int]bool, len(f.Shards))
		for _, s := range f.Shards {
			if s < 0 || s >= fleet.StudyShards {
				return fmt.Errorf("distrib: shard %d out of range [0, %d)", s, fleet.StudyShards)
			}
			if seen[s] {
				return fmt.Errorf("distrib: shard %d repeats in %s frame", s, f.Kind)
			}
			seen[s] = true
		}
	case FrameProgress:
		if f.Done < 0 || f.Total < 0 || f.Done > f.Total {
			return fmt.Errorf("distrib: progress %d/%d out of order", f.Done, f.Total)
		}
	case FrameShard:
		if f.Shard == nil {
			return fmt.Errorf("distrib: shard frame carries no result")
		}
		return f.Shard.Validate()
	case FrameError:
		if f.Error == "" {
			return fmt.Errorf("distrib: error frame carries no message")
		}
	default:
		return fmt.Errorf("distrib: unknown frame kind %q", f.Kind)
	}
	return nil
}

// versionError refuses a frame of another wire version.
func versionError(v int) error {
	return fmt.Errorf("distrib: wire version %d, but this build speaks version %d", v, wireVersion)
}

// versionMismatch explains a line the strict decode refused by its version,
// when it names this protocol at another: a version-1 study frame fails on
// its float tasks. It returns nil for any other line.
func versionMismatch(line []byte) error {
	var head struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
	}
	if json.Unmarshal(line, &head) != nil || head.Format != wireFormat || head.Version == wireVersion {
		return nil
	}
	return versionError(head.Version)
}

// wireFrame is the shape the one-pass study decode reads the rest of a
// study line into: a Frame whose spec's task array is a placeholder
// counter. Each shadowing field carries the JSON name of the field it
// hides, so the keys a frame may hold, and how they match, are Frame's.
type wireFrame struct {
	Frame
	Spec *wireSpec `json:"spec,omitempty"`
}

type wireSpec struct {
	Spec
	Ticks placeholderCount `json:"tasks,omitempty"`
}

// ParseFrame decodes and validates one frame line. Any input is safe: bad
// bytes produce an error, never a panic, and validation never allocates
// proportionally to values named inside the frame. It accepts exactly the
// lines a strict encoding/json decode of a Frame followed by validation
// accepts, with the same result.
//
// A study line's tick array, most of its bytes, does not pass through
// encoding/json: it is read by readTicks and the rest of the line decoded
// without it (see parseStudyLine). A line that path declines, and every
// other frame, takes the strict decode of the whole line.
func ParseFrame(line []byte) (Frame, error) {
	f, ok := parseStudyLine(line)
	if !ok {
		if err := jsonl.Unmarshal(line, &f); err != nil {
			if verr := versionMismatch(line); verr != nil {
				return Frame{}, verr
			}
			return Frame{}, fmt.Errorf("distrib: %w", err)
		}
	}
	if err := f.validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// parseStudyLine decodes a line whose spec carries its tick array without
// passing the array through encoding/json: it cuts out the value of the
// first "tasks" key outside a string, reads it with readTicks, and
// strictly decodes the rest of the line with a one-byte placeholder where
// the array was. It declines (ok false) unless that value is a tick array
// readTicks takes, the rest decodes, and the spec's task field took exactly
// one value, the placeholder. No struct under Frame has a map or interface
// field and unknown fields are refused, so in a line whose rest decodes, a
// "tasks" key outside strings is the spec's task field or fails the
// decode; the field's count catches a second key that folds to "tasks",
// and the placeholder check a number the cut glued onto a neighbouring
// byte.
func parseStudyLine(line []byte) (f Frame, ok bool) {
	start := tasksValue(line)
	if start < 0 {
		return Frame{}, false
	}
	ticks, n, ok := readTicks(line[start:])
	if !ok {
		return Frame{}, false
	}
	rest := make([]byte, 0, len(line)-n+1)
	rest = append(append(append(rest, line[:start]...), placeholder), line[start+n:]...)
	var w wireFrame
	if jsonl.Unmarshal(rest, &w) != nil || w.Spec == nil || w.Spec.Ticks != (placeholderCount{values: 1, placeholder: true}) {
		return Frame{}, false
	}
	f = w.Frame
	spec := w.Spec.Spec
	spec.Ticks = ticks
	f.Spec = &spec
	return f, true
}

// readTicks reads the JSON array of ticks data starts with, within
// jsonl.MaxLine bytes, and returns its values and its length in bytes. It
// takes only integers from 1 to math.MaxInt64 as JSON writes them, comma
// separated and padded with JSON whitespace, and declines (ok false)
// anything else; what it takes, encoding/json decodes into an []int64 to
// the same values. It sizes the result by the commas before the first ']',
// declining a count the array's bytes cannot hold, so it allocates once,
// at most four bytes per byte of the array.
func readTicks(data []byte) (ticks []int64, n int, ok bool) {
	data = data[:min(len(data), jsonl.MaxLine)]
	end := bytes.IndexByte(data, ']')
	if end < 0 || data[0] != '[' {
		return nil, 0, false
	}
	elems := data[1:end]
	commas := bytes.Count(elems, []byte{','})
	if 2*commas > len(elems) {
		return nil, 0, false
	}
	ticks = make([]int64, 0, commas+1)
	for i := skipSpace(elems, 0); i < len(elems); {
		j, v := i, int64(0)
		for ; j < len(elems) && elems[j]-'0' <= 9; j++ {
			v = v*10 + int64(elems[j]-'0')
		}
		// No digit, a leading zero or the tick 0, or past math.MaxInt64.
		if j == i || elems[i] == '0' || j-i > len(maxTick) || j-i == len(maxTick) && string(elems[i:j]) > maxTick {
			return nil, 0, false
		}
		ticks = append(ticks, v)
		if j+1 < len(elems) && elems[j] == ',' && elems[j+1]-'1' <= 8 {
			i = j + 1 // the common case: a comma and the next tick
			continue
		}
		if i = skipSpace(elems, j); i < len(elems) && elems[i] != ',' {
			return nil, 0, false
		} else if i < len(elems) {
			if i = skipSpace(elems, i+1); i == len(elems) {
				return nil, 0, false // a trailing comma
			}
		}
	}
	return ticks, end + 1, true
}

// maxTick is math.MaxInt64 as JSON writes it: a tick of 19 digits reads
// within int64 when it is no greater, compared as a string.
const maxTick = "9223372036854775807"

// skipSpace returns the index of the first byte at or after b[i] that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// placeholder stands in for a cut task array: a one-byte JSON value.
const placeholder = '0'

// placeholderCount counts the values a decode writes into the spec's tasks
// field, and notes whether the last one was the placeholder.
type placeholderCount struct {
	values      int
	placeholder bool
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *placeholderCount) UnmarshalJSON(data []byte) error {
	c.values++
	c.placeholder = len(data) == 1 && data[0] == placeholder
	return nil
}

// tasksValue returns the index of the value of the first "tasks" key
// outside a string in line, past the colon and any whitespace, or −1 when
// there is none. It tracks strings as JSON does: a quote outside a string
// opens one, a backslash escapes the next byte, and a quote closes it.
func tasksValue(line []byte) int {
	const key = `"tasks"`
	for i := 0; i < len(line); i++ {
		if line[i] != '"' {
			continue
		}
		if bytes.HasPrefix(line[i:], []byte(key)) {
			if j := skipSpace(line, i+len(key)); j < len(line) && line[j] == ':' {
				if j = skipSpace(line, j+1); j < len(line) {
					return j
				}
				return -1
			}
		}
		for i++; i < len(line) && line[i] != '"'; i++ {
			if line[i] == '\\' {
				i++
			}
		}
	}
	return -1
}

// ParseShardResult decodes and validates one shard-result object — the
// payload of a shard frame, exposed for tools that store shard states
// outside the conversation (and for the fuzzers).
func ParseShardResult(line []byte) (fleet.ShardResult, error) {
	var r fleet.ShardResult
	if err := jsonl.Unmarshal(line, &r); err != nil {
		return fleet.ShardResult{}, fmt.Errorf("distrib: %w", err)
	}
	if err := r.Validate(); err != nil {
		return fleet.ShardResult{}, err
	}
	return r, nil
}

// EncodeFrame appends one frame line to w.
func EncodeFrame(w io.Writer, f Frame) error {
	if err := f.validate(); err != nil {
		return err
	}
	line, err := encodeFrame(f)
	if err != nil {
		return err
	}
	_, err = w.Write(line)
	return err
}

// encodeFrame returns f's line: json.Marshal's bytes and a newline. A study
// frame that carries nothing but its spec has its tick array written by
// jsonl.AppendInt64s, the encoder the service WAL shares, and spliced in
// where json.Marshal puts it, before the spec's last field: the same bytes,
// without reflecting over every task.
func encodeFrame(f Frame) ([]byte, error) {
	var ticks []int64
	if f.Kind == FrameStudy && f.Spec != nil && len(f.Spec.Ticks) > 0 &&
		len(f.Shards) == 0 && f.Done == 0 && f.Total == 0 && f.Shard == nil && f.Error == "" {
		spec := *f.Spec
		ticks, spec.Ticks = spec.Ticks, nil
		f.Spec = &spec
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	if ticks == nil {
		return append(raw, '\n'), nil
	}
	// Nothing follows the spec, and "trials" is its last field; a quote
	// inside a string is escaped, so these bytes occur only as that key.
	// The line has room for every tick as wide as the first.
	cut := bytes.LastIndex(raw, []byte(`,"trials":`))
	line := make([]byte, 0, len(raw)+len(`,"tasks":[]`)+len(ticks)*(1+len(strconv.FormatInt(ticks[0], 10)))+1)
	line = jsonl.AppendInt64s(append(append(line, raw[:cut]...), `,"tasks":`...), ticks)
	return append(append(line, raw[cut:]...), '\n'), nil
}

// frameMaxLine caps one frame line on a connection, its line ending
// aside. Tests lower it.
var frameMaxLine = jsonl.MaxLine

// stream frames one connection: sequential reads through jsonl.Lines, the
// reader the trace and the service WAL share, and mutex-serialized writes
// (a worker's progress callback and its shard sender may race).
type stream struct {
	r  *jsonl.Lines
	w  io.Writer
	mu sync.Mutex
}

func newStream(r io.Reader, w io.Writer) *stream {
	return &stream{r: jsonl.NewLines(r, frameMaxLine), w: w}
}

// recv reads the next frame. io.EOF reports a cleanly closed peer; a line
// over the cap is an error naming its line on the connection.
func (s *stream) recv() (Frame, error) {
	line, err := s.r.Next()
	if err == io.EOF {
		return Frame{}, err
	}
	if err != nil {
		return Frame{}, fmt.Errorf("distrib: %w", err)
	}
	return ParseFrame(line)
}

func (s *stream) send(f Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return EncodeFrame(s.w, f)
}

// write sends one already encoded frame line.
func (s *stream) write(line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.w.Write(line)
	return err
}
