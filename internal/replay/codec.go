// Package replay turns recorded ACT/REF traces into first-class
// workloads: a strict JSONL codec for the obs trace schema plus an
// engine that feeds a decoded trace into the dram substrate with the
// refmodel differential oracle attached, producing a deterministic
// verdict (flips, TRR triggers, counter snapshot, first-divergence
// report).
//
// Any frontend that can emit the schema — a live hammer session via
// internal/obs, a gem5-class simulator, a hardware ACT logger, a fuzzer
// — becomes a client of the repository's differential harness: given
// the same DIMM profile and device seed, a replay reproduces the
// recording session's exact flip set, and the reference model audits
// every refresh boundary on the way. internal/serve exposes the engine
// as POST /v1/replay; cmd/replay is the CLI.
package replay

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"rhohammer/internal/arch"
)

// Version is the trace format version the codec speaks. A trace file
// may open with one header line carrying it (see HeaderLine); files
// without a header — obs.Trace.WriteJSONL output — are implicitly
// this version and name their module profile via Options.DIMM.
const Version = "v1"

// Decode bounds, overridable per call via Options. They exist so a
// hostile or corrupted trace cannot balloon memory: the decoder fails
// with a typed error instead of buffering without limit.
const (
	// DefaultMaxEvents bounds the number of event lines accepted.
	DefaultMaxEvents = 1 << 20
	// DefaultMaxLineBytes bounds one JSONL line.
	DefaultMaxLineBytes = 1 << 16
)

// ErrorKind classifies a DecodeError. Every way a trace can be
// rejected has its own kind, so callers (and tests) can assert on the
// failure mode instead of matching message strings.
type ErrorKind string

const (
	// ErrSyntax is a line that is not a valid JSON event object
	// (truncated JSON, wrong field types, unknown fields).
	ErrSyntax ErrorKind = "syntax"
	// ErrHeader is a malformed header line.
	ErrHeader ErrorKind = "header"
	// ErrVersion is a header naming a version this codec does not speak.
	ErrVersion ErrorKind = "version"
	// ErrUnknownKind is an event kind outside the trace schema.
	ErrUnknownKind ErrorKind = "unknown-kind"
	// ErrBankRange / ErrRowRange are addresses outside the module
	// profile's geometry.
	ErrBankRange ErrorKind = "bank-range"
	ErrRowRange  ErrorKind = "row-range"
	// ErrLineTooLong is a line exceeding Options.MaxLineBytes.
	ErrLineTooLong ErrorKind = "line-too-long"
	// ErrTooManyEvents is a trace exceeding Options.MaxEvents.
	ErrTooManyEvents ErrorKind = "too-many-events"
	// ErrTruncated is a trace whose ring dropped events (the capture's
	// "truncated" marker): an incomplete command stream cannot replay to
	// the session's state, so it is refused rather than silently wrong.
	ErrTruncated ErrorKind = "truncated"
	// ErrDIMM means no module profile was resolvable (neither Options
	// nor a header named one, or the named ID is unknown).
	ErrDIMM ErrorKind = "dimm"
	// ErrEmpty is a trace with no act/ref commands at all.
	ErrEmpty ErrorKind = "empty"
	// ErrMultiSession is a capture dump mixing several sessions
	// without Options.Session selecting one.
	ErrMultiSession ErrorKind = "multi-session"
)

// DecodeError is the typed decode failure: the 1-based line number the
// trace was rejected at, the failure kind, and a human-readable detail.
type DecodeError struct {
	Line int
	Kind ErrorKind
	Msg  string
}

// Error implements error.
func (e *DecodeError) Error() string {
	if e.Line <= 0 {
		return fmt.Sprintf("replay: %s: %s", e.Kind, e.Msg)
	}
	return fmt.Sprintf("replay: line %d: %s: %s", e.Line, e.Kind, e.Msg)
}

// Options parameterizes Decode. The zero value accepts a headered
// single-session trace at the default bounds.
type Options struct {
	// DIMM names the module profile (arch.DIMMByID) the trace was
	// recorded against, overriding the header. Required when the trace
	// has no header (obs.Trace.WriteJSONL output).
	DIMM string
	// Seed is the dram.Device seed the trace was recorded against,
	// overriding the header. For a trace recorded from a hammer session
	// this is hammer.DeviceSeed(sessionSeed), not the session seed
	// itself. Nil falls back to the header, then to 0.
	Seed *int64
	// Session selects one session of a capture dump
	// (obs.Capture.WriteJSONL stamps each line with a "session" key);
	// lines of other sessions are skipped. Without it, a dump mixing
	// sessions is an ErrMultiSession.
	Session string
	// MaxEvents / MaxLineBytes override the Default* bounds (<= 0 keeps
	// the default).
	MaxEvents    int
	MaxLineBytes int
}

// CmdKind is a replayable substrate command.
type CmdKind uint8

const (
	// CmdAct is one ACT on (Bank, Row) at time At.
	CmdAct CmdKind = iota
	// CmdRef is one REF command at time At.
	CmdRef
	// CmdReset clears disturbance state and recorded flips (the
	// attacker re-initializing victim memory between trials).
	CmdReset
)

// Cmd is one decoded substrate command, in trace order.
type Cmd struct {
	Kind CmdKind
	Bank int
	Row  uint64
	At   float64
}

// FlipKey identifies one recorded flip annotation: the (bank, row)
// address, the obs encoding N = byte*8 + bit, and the simulation
// timestamp it fired at.
type FlipKey struct {
	Bank int     `json:"bank"`
	Row  uint64  `json:"row"`
	N    int64   `json:"n"`
	At   float64 `json:"t_ns"`
}

// File is one decoded trace: the resolved module profile and device
// seed, the replayable command stream, and the flip annotations the
// recording session observed (the oracle the round-trip is checked
// against).
type File struct {
	// Version is the trace format version ("v1").
	Version string
	// DIMM is the resolved module profile; DIMMID its arch ID.
	DIMM   *arch.DIMM
	DIMMID string
	// Seed is the dram.Device seed replays run under.
	Seed int64
	// Cmds is the replayable command stream in trace order.
	Cmds []Cmd
	// RecordedFlips are the trace's flip annotations, in trace order.
	RecordedFlips []FlipKey
	// Annotations counts the non-command, non-flip events retained for
	// bookkeeping (trr, blast, pattern, tune).
	Annotations int
	// Hash is the hex sha256 of the raw trace bytes plus the resolved
	// (dimm, seed) — the content identity replay jobs are named and
	// cached by.
	Hash string
}

// HeaderLine renders the optional first line of a trace file, binding
// the format version, module profile and device seed into the artifact
// itself so it replays without out-of-band options.
func HeaderLine(dimmID string, seed int64) string {
	return fmt.Sprintf("{\"rhohammer_trace\":%q,\"dimm\":%q,\"seed\":%d}\n", Version, dimmID, seed)
}

// eventLine is the wire shape of one trace line: obs.Event plus the
// capture's per-line session stamp. Decoding is strict — unknown
// fields are a syntax error, so schema drift is caught at the line it
// happens on.
type eventLine struct {
	Session string  `json:"session"`
	Seq     uint64  `json:"seq"`
	TimeNS  float64 `json:"t_ns"`
	Layer   string  `json:"layer"`
	Kind    string  `json:"kind"`
	Bank    int     `json:"bank"`
	Row     uint64  `json:"row"`
	N       int64   `json:"n"`
}

// DecodeBytes is Decode over an in-memory trace.
func DecodeBytes(data []byte, opts Options) (*File, error) {
	return Decode(bytes.NewReader(data), opts)
}

// Decode parses one JSONL trace under the given options. Any rejection
// is a *DecodeError carrying the offending line number and a typed
// kind; the decoder never panics on malformed input (FuzzTraceDecode
// pins this).
func Decode(r io.Reader, opts Options) (*File, error) {
	maxEvents := opts.MaxEvents
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	maxLine := opts.MaxLineBytes
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}

	hash := sha256.New()
	sc := bufio.NewScanner(io.TeeReader(r, hash))
	// The scanner's token limit is max(maxLine, cap(buf)), so the
	// initial buffer must not exceed the configured line bound.
	initial := 4096
	if initial > maxLine {
		initial = maxLine
	}
	sc.Buffer(make([]byte, 0, initial), maxLine)

	f := &File{Version: Version}
	var (
		line        int
		events      int
		seenContent bool
		headerDIMM  string
		headerSeed  *int64
		sessionSet  bool
		curSession  string
	)
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if !seenContent && bytes.Contains(raw, []byte(`"rhohammer_trace"`)) {
			seenContent = true
			var hd struct {
				Version string `json:"rhohammer_trace"`
				DIMM    string `json:"dimm"`
				Seed    *int64 `json:"seed"`
			}
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&hd); err != nil {
				return nil, &DecodeError{Line: line, Kind: ErrHeader, Msg: err.Error()}
			}
			if hd.Version != Version {
				return nil, &DecodeError{Line: line, Kind: ErrVersion,
					Msg: fmt.Sprintf("unsupported trace version %q (this codec speaks %q)", hd.Version, Version)}
			}
			headerDIMM, headerSeed = hd.DIMM, hd.Seed
			continue
		}
		seenContent = true

		var ev eventLine
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return nil, &DecodeError{Line: line, Kind: ErrSyntax, Msg: err.Error()}
		}
		// Session routing: an explicit filter skips other sessions; with
		// no filter, the first event line fixes the session and any later
		// mix is an error (replaying interleaved sessions into one device
		// would be meaningless).
		if opts.Session != "" {
			if ev.Session != opts.Session {
				continue
			}
		} else if !sessionSet {
			sessionSet, curSession = true, ev.Session
		} else if ev.Session != curSession {
			return nil, &DecodeError{Line: line, Kind: ErrMultiSession,
				Msg: fmt.Sprintf("trace mixes sessions %q and %q (set Options.Session to select one)", curSession, ev.Session)}
		}

		events++
		if events > maxEvents {
			return nil, &DecodeError{Line: line, Kind: ErrTooManyEvents,
				Msg: fmt.Sprintf("trace exceeds %d events", maxEvents)}
		}

		// Geometry is resolved at the first event line so address range
		// checks can run as lines stream by.
		if f.DIMM == nil {
			if err := f.resolveDIMM(line, opts.DIMM, headerDIMM); err != nil {
				return nil, err
			}
		}

		switch ev.Kind {
		case "act":
			if err := f.checkAddr(line, ev.Bank, ev.Row); err != nil {
				return nil, err
			}
			f.Cmds = append(f.Cmds, Cmd{Kind: CmdAct, Bank: ev.Bank, Row: ev.Row, At: ev.TimeNS})
		case "ref":
			f.Cmds = append(f.Cmds, Cmd{Kind: CmdRef, At: ev.TimeNS})
		case "reset":
			f.Cmds = append(f.Cmds, Cmd{Kind: CmdReset, At: ev.TimeNS})
		case "flip":
			if err := f.checkAddr(line, ev.Bank, ev.Row); err != nil {
				return nil, err
			}
			f.RecordedFlips = append(f.RecordedFlips, FlipKey{Bank: ev.Bank, Row: ev.Row, N: ev.N, At: ev.TimeNS})
		case "trr", "blast":
			if err := f.checkAddr(line, ev.Bank, ev.Row); err != nil {
				return nil, err
			}
			f.Annotations++
		case "pattern", "tune":
			f.Annotations++
		case "truncated":
			return nil, &DecodeError{Line: line, Kind: ErrTruncated,
				Msg: fmt.Sprintf("trace ring dropped %d events; a truncated stream cannot replay to the session's state", ev.N)}
		default:
			return nil, &DecodeError{Line: line, Kind: ErrUnknownKind,
				Msg: fmt.Sprintf("unknown event kind %q", ev.Kind)}
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &DecodeError{Line: line + 1, Kind: ErrLineTooLong,
				Msg: fmt.Sprintf("line exceeds %d bytes", maxLine)}
		}
		return nil, fmt.Errorf("replay: reading trace: %w", err)
	}
	if len(f.Cmds) == 0 {
		return nil, &DecodeError{Line: line, Kind: ErrEmpty, Msg: "trace contains no act/ref commands"}
	}

	switch {
	case opts.Seed != nil:
		f.Seed = *opts.Seed
	case headerSeed != nil:
		f.Seed = *headerSeed
	}
	// The content identity covers the raw bytes and the resolved
	// replay parameters: the same trace under a different profile or
	// seed is a different workload (and a different cache key).
	fmt.Fprintf(hash, "|dimm=%s|seed=%d", f.DIMMID, f.Seed)
	f.Hash = fmt.Sprintf("%x", hash.Sum(nil))
	return f, nil
}

// resolveDIMM fixes the module profile from the options or the header.
func (f *File) resolveDIMM(line int, optDIMM, headerDIMM string) error {
	id := optDIMM
	if id == "" {
		id = headerDIMM
	}
	if id == "" {
		return &DecodeError{Line: line, Kind: ErrDIMM,
			Msg: "no module profile: set Options.DIMM or add a header line (see HeaderLine)"}
	}
	d, ok := arch.DIMMByID(id)
	if !ok {
		return &DecodeError{Line: line, Kind: ErrDIMM, Msg: fmt.Sprintf("unknown dimm %q", id)}
	}
	f.DIMM, f.DIMMID = d, id
	return nil
}

// checkAddr validates an event's address against the module geometry.
func (f *File) checkAddr(line, bank int, row uint64) error {
	if banks := f.DIMM.TotalBanks(); bank < 0 || bank >= banks {
		return &DecodeError{Line: line, Kind: ErrBankRange,
			Msg: fmt.Sprintf("bank %d outside [0, %d)", bank, banks)}
	}
	if rows := f.DIMM.RowsPerBank; row >= rows {
		return &DecodeError{Line: line, Kind: ErrRowRange,
			Msg: fmt.Sprintf("row %d outside [0, %d)", row, rows)}
	}
	return nil
}
