package distrib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"cyclesteal/fleet"
	"cyclesteal/internal/jsonl"
)

// The wire format, versioned like the trace and WAL formats: JSONL frames,
// one JSON object per line, every object carrying its kind in "frame".
// The conversation on one connection is
//
//	worker → coordinator   {"frame":"hello","format":"cyclesteal-distrib","version":1}
//	coordinator → worker   {"frame":"study","format":...,"version":1,"spec":{...}}
//	coordinator → worker   {"frame":"assign","shards":[0,7,...]}
//	worker → coordinator   {"frame":"progress","done":12,"total":40}   (repeated)
//	worker → coordinator   {"frame":"shard","shard":{"shard":0,"metrics":[...]}} (one per shard)
//	worker → coordinator   {"frame":"done","shards":[0,7,...]}
//	worker → coordinator   {"frame":"error","error":"..."}             (instead of shard/done)
//
// assign/answer rounds repeat until the coordinator closes the connection.
// Decoding is strict: unknown fields, any byte after a frame's object but
// JSON whitespace, unknown kinds, out-of-range shard IDs and structurally
// invalid accumulator states are errors, never guesses, and so is a line
// over jsonl.MaxLine bytes, the cap the service WAL shares. A frame line is
// exactly json.Marshal's bytes for its Frame and a newline; the study
// spec's task array is written by internal/jsonl's float codec and read by
// its strict number-array parser (see ParseFrame), which match
// encoding/json byte for byte and value for value. A version bump is
// required for any change to the frame shapes, the study shard count, or
// the trial→shard assignment rule.
const (
	wireFormat  = "cyclesteal-distrib"
	wireVersion = 1
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
			return fmt.Errorf("distrib: version %d, want %d", f.Version, wireVersion)
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

// wireFrame is the shape ParseFrame decodes: a Frame whose study spec
// reads its tasks through T — jsonl.Floats, which converts the numbers
// without reflection, or a placeholder counter once the one-pass path has
// cut the array out. Each shadowing field carries the JSON name of the
// field it hides, so the keys a frame may hold, and how they match, are
// Frame's.
type wireFrame[T any] struct {
	Frame
	Spec *wireSpec[T] `json:"spec,omitempty"`
}

type wireSpec[T any] struct {
	Spec
	Tasks T `json:"tasks,omitempty"`
}

// frame is the decoded Frame, its spec (if any) carrying tasks.
func (w *wireFrame[T]) frame(tasks []float64) Frame {
	f := w.Frame
	if w.Spec != nil {
		spec := w.Spec.Spec
		spec.Tasks = tasks
		f.Spec = &spec
	}
	return f
}

// ParseFrame decodes and validates one frame line. Any input is safe: bad
// bytes produce an error, never a panic, and validation never allocates
// proportionally to values named inside the frame. It accepts exactly the
// lines a strict encoding/json decode of a Frame followed by validation
// accepts, with the same result.
//
// A study line's task array, most of its bytes, does not pass through
// encoding/json: it is parsed by jsonl.Numbers and the rest of the line
// decoded without it (see parseStudyLine). A line that path declines, and
// every other frame, takes the strict decode of the whole line.
func ParseFrame(line []byte) (Frame, error) {
	f, ok := parseStudyLine(line)
	if !ok {
		var w wireFrame[jsonl.Floats]
		if err := jsonl.Unmarshal(line, &w); err != nil {
			return Frame{}, fmt.Errorf("distrib: %w", err)
		}
		var tasks []float64
		if w.Spec != nil {
			tasks = w.Spec.Tasks
		}
		f = w.frame(tasks)
	}
	if err := f.validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// parseStudyLine decodes a line whose spec carries its task array without
// passing the array through encoding/json: it cuts out the value of the
// first "tasks" key outside a string, parses it with jsonl.Numbers, and
// strictly decodes the rest of the line with a one-byte placeholder where
// the array was. It declines
// (ok false) unless that value is a strict number array, the rest decodes,
// and the spec's tasks field took exactly one value, the placeholder. No
// struct under Frame has a map or interface field and unknown fields are
// refused, so in a line whose rest decodes, a "tasks" key outside strings
// is the spec's tasks field or fails the decode; the field's count catches
// a second key that folds to "tasks", and the placeholder check a number
// the cut glued onto a neighbouring byte.
func parseStudyLine(line []byte) (f Frame, ok bool) {
	start := tasksValue(line)
	if start < 0 || line[start] != '[' {
		return Frame{}, false
	}
	tasks, n, err := jsonl.Numbers(line[start:])
	if err != nil {
		return Frame{}, false
	}
	rest := make([]byte, 0, len(line)-n+1)
	rest = append(append(append(rest, line[:start]...), placeholder), line[start+n:]...)
	var w wireFrame[placeholderCount]
	if jsonl.Unmarshal(rest, &w) != nil || w.Spec == nil || w.Spec.Tasks != (placeholderCount{values: 1, placeholder: true}) {
		return Frame{}, false
	}
	return w.frame(tasks), true
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
			if rest := bytes.TrimLeft(line[i+len(key):], jsonSpace); len(rest) > 0 && rest[0] == ':' {
				if rest = bytes.TrimLeft(rest[1:], jsonSpace); len(rest) > 0 {
					return len(line) - len(rest)
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

// jsonSpace is the JSON whitespace a token may be padded with.
const jsonSpace = " \t\r\n"

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
// frame that carries nothing but its spec has its task array written by
// jsonl.AppendFloats and spliced in where json.Marshal puts it, before the
// spec's last field: the same bytes, without reflecting over every
// duration. Non-finite durations take json.Marshal's path and its error.
func encodeFrame(f Frame) ([]byte, error) {
	var tasks []float64
	if f.Kind == FrameStudy && f.Spec != nil && len(f.Spec.Tasks) > 0 &&
		len(f.Shards) == 0 && f.Done == 0 && f.Total == 0 && f.Shard == nil && f.Error == "" &&
		allFinite(f.Spec.Tasks) {
		spec := *f.Spec
		tasks, spec.Tasks = spec.Tasks, nil
		f.Spec = &spec
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	if tasks == nil {
		return append(raw, '\n'), nil
	}
	// Nothing follows the spec, and "trials" is its last field; a quote
	// inside a string is escaped, so these bytes occur only as that key.
	cut := bytes.LastIndex(raw, []byte(`,"trials":`))
	line := append(make([]byte, 0, len(raw)+len(`,"tasks":`)), raw[:cut]...)
	line = jsonl.AppendFloats(append(line, `,"tasks":`...), tasks)
	return append(append(line, raw[cut:]...), '\n'), nil
}

func allFinite(fs []float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// stream frames one connection: sequential reads, mutex-serialized writes
// (a worker's progress callback and its shard sender may race).
type stream struct {
	r  *bufio.Scanner
	w  io.Writer
	mu sync.Mutex
}

func newStream(r io.Reader, w io.Writer) *stream {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), jsonl.MaxLine)
	return &stream{r: sc, w: w}
}

// recv reads the next frame. io.EOF reports a cleanly closed peer.
func (s *stream) recv() (Frame, error) {
	if !s.r.Scan() {
		if err := s.r.Err(); err != nil {
			return Frame{}, err
		}
		return Frame{}, io.EOF
	}
	return ParseFrame(s.r.Bytes())
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
