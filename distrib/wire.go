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
// spec's task array is written and read by internal/jsonl's float codec,
// which matches encoding/json byte for byte and value for value. A version
// bump is required for any change to the frame shapes, the study shard
// count, or the trial→shard assignment rule.
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

// wireFrame is the shape ParseFrame decodes: a Frame whose study spec reads
// its tasks through jsonl.Floats, which converts the numbers without
// reflection. Each shadowing field carries the JSON name of the field it
// hides, so the keys a frame may hold, and how they match, are Frame's.
type wireFrame struct {
	Frame
	Spec *wireSpec `json:"spec,omitempty"`
}

type wireSpec struct {
	Spec
	Tasks jsonl.Floats `json:"tasks,omitempty"`
}

// ParseFrame decodes and validates one frame line. Any input is safe: bad
// bytes produce an error, never a panic, and validation never allocates
// proportionally to values named inside the frame. It accepts exactly the
// lines a strict encoding/json decode of a Frame followed by validation
// accepts, with the same result.
func ParseFrame(line []byte) (Frame, error) {
	var w wireFrame
	if err := jsonl.Unmarshal(line, &w); err != nil {
		return Frame{}, fmt.Errorf("distrib: %w", err)
	}
	f := w.Frame
	if w.Spec != nil {
		spec := w.Spec.Spec
		spec.Tasks = w.Spec.Tasks
		f.Spec = &spec
	}
	if err := f.validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
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
