package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"cyclesteal/internal/jsonl"
)

// The service write-ahead log is JSON Lines, the same shape as the trace
// package's availability format: a header object naming the format, then
// one object per ServiceEvent in log order. A session killed by its fault
// plan closes the log with a final {"kind":"kill"} record.
//
//	{"format":"cyclesteal-service-wal","version":2,"ticks_per_setup":100}
//	{"round":0,"kind":"submit","tenant":"acme","tasks":[240,240,240]}
//	{"round":3,"kind":"leave","sampled":true,"station":2}
//	{"round":7,"kind":"kill","sampled":true}
//
// Fields at their zero value are omitted. A submit record carries its job
// as the grid ticks the service plays, under the key "tasks": task i's
// duration in ticks of Setup/ticks_per_setup, each ≥ 1. ticks_per_setup
// names that grid; RecoverService refuses a log whose grid disagrees with
// the configuration it is given. Version 1 logged caller-unit durations; a
// log of another version is refused with an error naming both. A line may
// run to jsonl.MaxLine bytes, the cap the distrib wire frames share.
const (
	walFormat  = "cyclesteal-service-wal"
	walVersion = 2
)

// walMaxLine caps one WAL line, for the reader and for Submit, which
// refuses a job whose record could outgrow it. Tests lower it.
var walMaxLine = jsonl.MaxLine

// walRecordSlack bounds a submit record's bytes beyond its task array and
// tenant: the keys, the two integers and the newline.
const walRecordSlack = 128

// walHeader is the log's first line.
type walHeader struct {
	Format        string `json:"format"`
	Version       int    `json:"version"`
	TicksPerSetup int    `json:"ticks_per_setup"`
}

// walRecord is one event line. Kind travels as the event kind's name, so
// the log reads without this package's enum values at hand.
type walRecord struct {
	Round      int     `json:"round"`
	Kind       string  `json:"kind"`
	Sampled    bool    `json:"sampled,omitempty"`
	Tenant     string  `json:"tenant,omitempty"`
	JobID      int     `json:"job_id,omitempty"`
	Ticks      []int64 `json:"tasks,omitempty"`
	Station    int     `json:"station,omitempty"`
	Checkpoint float64 `json:"checkpoint,omitempty"`
	Adaptive   bool    `json:"adaptive,omitempty"`
}

func writeWALHeader(w io.Writer, ticksPerSetup int) error {
	return writeWALLine(w, walHeader{Format: walFormat, Version: walVersion, TicksPerSetup: ticksPerSetup})
}

// writeWALRecord writes ev's line: exactly the bytes json.Marshal writes for
// its walRecord, then a newline. tasks is ev.Ticks as jsonl.AppendInt64s
// encodes them — a service encodes a job's ticks when it is submitted, off
// the round loop, and the record only splices them in. The rare checkpoint
// interval goes through encoding/json, which refuses a NaN or infinite one.
func writeWALRecord(w io.Writer, ev ServiceEvent, tasks []byte) error {
	if ev.Kind < 0 || int(ev.Kind) >= len(eventKindNames) {
		return fmt.Errorf("cannot encode event kind %v", ev.Kind)
	}
	kind := eventKindNames[ev.Kind]
	var checkpoint []byte
	if ev.Checkpoint != 0 {
		var err error
		if checkpoint, err = json.Marshal(ev.Checkpoint); err != nil {
			return fmt.Errorf("cannot encode checkpoint: %w", err)
		}
	}
	b := make([]byte, 0, 64)
	b = strconv.AppendInt(append(b, `{"round":`...), int64(ev.Round), 10)
	b = append(append(append(b, `,"kind":"`...), kind...), '"')
	if ev.Sampled {
		b = append(b, `,"sampled":true`...)
	}
	if ev.Tenant != "" {
		b = appendJSONString(append(b, `,"tenant":`...), ev.Tenant)
	}
	if ev.JobID != 0 {
		b = strconv.AppendInt(append(b, `,"job_id":`...), int64(ev.JobID), 10)
	}
	if len(ev.Ticks) > 0 {
		if _, err := w.Write(append(b, `,"tasks":`...)); err != nil {
			return err
		}
		if _, err := w.Write(tasks); err != nil {
			return err
		}
		b = b[:0]
	}
	if ev.Station != 0 {
		b = strconv.AppendInt(append(b, `,"station":`...), int64(ev.Station), 10)
	}
	if checkpoint != nil {
		b = append(append(b, `,"checkpoint":`...), checkpoint...)
	}
	if ev.Adaptive {
		b = append(b, `,"adaptive":true`...)
	}
	_, err := w.Write(append(b, "}\n"...))
	return err
}

// appendJSONString appends s as encoding/json writes a string: quoted;
// with ", \ and control characters escaped (\b, \f, \n, \r, \t, else
// \u00XX); with <, > and & escaped for HTML, invalid UTF-8 replaced by
// \ufffd, and U+2028 and U+2029 escaped. Unlike json.Marshal it allocates
// nothing of its own, so a record's allocations do not depend on the state
// of encoding/json's buffer pool.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending, needing no escape
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

func writeWALLine(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = w.Write(line)
	return err
}

// decodeWAL parses a whole log strictly: a malformed header, an unknown
// field or kind, bytes after a line's object, a tick below 1, a negative
// checkpoint, a round running backwards or a line over walMaxLine bytes is
// an error naming its line, never a panic and never a silent skip. Blank
// lines are skipped but counted. Lines decode through jsonl.Unmarshal, the
// strict decode the distrib wire frames share.
func decodeWAL(r io.Reader) (walHeader, []ServiceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, walMaxLine)
	var hdr walHeader
	var events []ServiceEvent
	n := 0
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if hdr.Format == "" {
			if err := decodeWALHeader(line, &hdr); err != nil {
				return hdr, nil, err
			}
			continue
		}
		var rec walRecord
		if err := jsonl.Unmarshal(line, &rec); err != nil {
			return hdr, nil, fmt.Errorf("fleet: wal: line %d: %w", n, err)
		}
		kind := EventKind(slices.Index(eventKindNames[:], rec.Kind))
		if kind < 0 {
			return hdr, nil, fmt.Errorf("fleet: wal: line %d: unknown kind %q", n, rec.Kind)
		}
		if rec.Round < 0 {
			return hdr, nil, fmt.Errorf("fleet: wal: line %d: negative round %d", n, rec.Round)
		}
		if len(events) > 0 && rec.Round < events[len(events)-1].Round {
			return hdr, nil, fmt.Errorf("fleet: wal: line %d: round %d runs backwards (previous event at round %d)", n, rec.Round, events[len(events)-1].Round)
		}
		if len(events) > 0 && events[len(events)-1].Kind == EventKill {
			return hdr, nil, fmt.Errorf("fleet: wal: line %d: events after the kill record", n)
		}
		if rec.Checkpoint < 0 { // encoding/json reads no NaN or infinity
			return hdr, nil, fmt.Errorf("fleet: wal: line %d: checkpoint must be ≥ 0, got %g", n, rec.Checkpoint)
		}
		for i, t := range rec.Ticks {
			if t < 1 {
				return hdr, nil, fmt.Errorf("fleet: wal: line %d: task %d duration must be ≥ 1 tick, got %d", n, i, t)
			}
		}
		if len(rec.Ticks) == 0 {
			rec.Ticks = nil // "tasks":[] and an absent field read the same
		}
		events = append(events, ServiceEvent{
			Round:      rec.Round,
			Kind:       kind,
			Tenant:     rec.Tenant,
			JobID:      rec.JobID,
			Ticks:      rec.Ticks,
			Station:    rec.Station,
			Checkpoint: rec.Checkpoint,
			Adaptive:   rec.Adaptive,
			Sampled:    rec.Sampled,
		})
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, fmt.Errorf("fleet: wal: line %d: %w", n+1, err)
	}
	if hdr.Format == "" {
		return hdr, nil, fmt.Errorf("fleet: wal: missing header")
	}
	return hdr, events, nil
}

// decodeWALHeader parses and checks the log's first line.
func decodeWALHeader(line []byte, hdr *walHeader) error {
	if err := jsonl.Unmarshal(line, hdr); err != nil {
		return fmt.Errorf("fleet: wal: header: %w", err)
	}
	if hdr.Format != walFormat {
		return fmt.Errorf("fleet: wal: format %q, want %q", hdr.Format, walFormat)
	}
	if hdr.Version != walVersion {
		return fmt.Errorf("fleet: wal: log version %d, but this build reads version %d", hdr.Version, walVersion)
	}
	if hdr.TicksPerSetup < 1 {
		return fmt.Errorf("fleet: wal: ticks_per_setup must be ≥ 1, got %d", hdr.TicksPerSetup)
	}
	return nil
}

// ReadWAL decodes a service write-ahead log into its event sequence,
// validating the header and every line strictly; the trace-format analogue
// for service sessions. A submit's Ticks are on the grid the log's header
// names, which is the writing service's (Fleet.Units converts them to
// caller units). Feed the events to ReplayService under the same
// configuration, or hand the raw log to RecoverService to resume the
// session instead.
func ReadWAL(r io.Reader) ([]ServiceEvent, error) {
	_, events, err := decodeWAL(r)
	return events, err
}

// RecoverService rebuilds a resident session from its durable log after a
// scheduler kill: give it the same ServiceConfig the dead session ran
// (same seeds, fleet, churn and fault plan — only Faults.KillRound raised
// or cleared, or the session dies at the same round again) and the log its
// WAL wrote. The returned Service is paused at round 0 in recovery mode;
// its first Drain or Start replays the logged rounds — external events
// applied from the log, sampled churn and crashes regenerated from the
// seeds and checked against it — and then continues live, bit-identically
// to a session that was never killed. Jobs and ops that never reached the
// dead session's log are gone: resubmit them. Ops queued before the
// session is rebuilt wait for it, and a job submitted meanwhile gets an ID
// past every logged job's. A fresh cfg.WAL may be set (use a new file —
// the recovery re-logs the whole history into it).
func RecoverService(cfg ServiceConfig, wal io.Reader) (*Service, error) {
	hdr, events, err := decodeWAL(wal)
	if err != nil {
		return nil, err
	}
	s, err := NewService(cfg)
	if err != nil {
		return nil, err
	}
	if hdr.TicksPerSetup != int(s.f.g.TicksPerSetup) {
		return nil, fmt.Errorf("fleet: recover: log quantized at %d ticks per setup, config resolves to %d", hdr.TicksPerSetup, int(s.f.g.TicksPerSetup))
	}
	s.follow(events, true)
	return s, nil
}
