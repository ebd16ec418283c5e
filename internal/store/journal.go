package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"rhohammer/internal/campaign"
)

// Version is the journal format version. The first line of every
// journal is a header record carrying it; a journal written by a
// different format version is refused with a typed error instead of
// being half-understood.
const Version = "v1"

// ErrorKind classifies a DecodeError. Every way a journal can be
// rejected has its own kind, so callers (and the failure-mode tests)
// can assert on the failure mode instead of matching message strings —
// the same contract the replay trace codec keeps.
type ErrorKind string

const (
	// ErrSyntax is a journal line that is not a valid JSON record
	// (wrong field types, unknown fields) anywhere except the final
	// line — a torn final line is crash debris and is dropped, not an
	// error (see Open).
	ErrSyntax ErrorKind = "syntax"
	// ErrHeader is a missing or malformed header line.
	ErrHeader ErrorKind = "header"
	// ErrVersion is a header naming a version this store does not speak.
	ErrVersion ErrorKind = "version"
	// ErrUnknownKind is a record kind outside the journal schema.
	ErrUnknownKind ErrorKind = "unknown-kind"
	// ErrUnknownJob is a cell or done record naming a job the journal
	// never introduced with a job record.
	ErrUnknownJob ErrorKind = "unknown-job"
)

// DecodeError is the typed journal decode failure: the 1-based line
// number the journal was rejected at, the failure kind, and a
// human-readable detail.
type DecodeError struct {
	Line int
	Kind ErrorKind
	Msg  string
}

// Error implements error.
func (e *DecodeError) Error() string {
	if e.Line <= 0 {
		return fmt.Sprintf("store: %s: %s", e.Kind, e.Msg)
	}
	return fmt.Sprintf("store: line %d: %s: %s", e.Line, e.Kind, e.Msg)
}

// The journal is JSONL: one JSON record per line, first line a header.
// Three record kinds follow the header: a job's admission and each of
// its completed cells (the commit points before its snapshot), and its
// retention eviction:
//
//	{"kind":"header","version":"v1"}
//	{"kind":"job","id":...,"spec":...,"seed":...,"scale":...,"parallel":...,"created_ns":...}
//	{"kind":"cell","job":...,"index":...,"key":...,"node":...,"stat":{...},"result":"<base64 gob>"}
//	{"kind":"done","job":...,"state":...,"error":...}
//
// Records are idempotent under replay: a duplicated job record
// re-applies the same metadata, a duplicated cell record overwrites the
// same index with the same bytes, a duplicated done record re-marks the
// same terminal state. Replaying a journal twice therefore yields the
// same state as replaying it once.

type headerRecord struct {
	Kind    string `json:"kind"`
	Version string `json:"version"`
}

type jobRecord struct {
	Kind      string  `json:"kind"`
	ID        string  `json:"id"`
	Spec      string  `json:"spec"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	Parallel  int     `json:"parallel"`
	CreatedNS int64   `json:"created_ns"`
}

type cellRecord struct {
	Kind   string            `json:"kind"`
	Job    string            `json:"job"`
	Index  int               `json:"index"`
	Key    string            `json:"key"`
	Node   string            `json:"node,omitempty"`
	Stat   campaign.CellStat `json:"stat"`
	Result []byte            `json:"result,omitempty"`
}

type doneRecord struct {
	Kind  string `json:"kind"`
	Job   string `json:"job"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// kindProbe is the first decode pass of a record whose kind the writer
// prefix does not settle (see sniffKind): only the record kind, so the
// second pass can decode the full kind-specific shape strictly.
type kindProbe struct {
	Kind string `json:"kind"`
}

// decodeStrict decodes one journal line into v with unknown fields
// rejected, so schema drift is caught at the line it happens on.
func decodeStrict(raw []byte, v any) error {
	_, err := decodeStrictWhole(raw, v)
	return err
}

// decodeStrictWhole is decodeStrict that also reports whether the
// value spans all of raw; kindProbe's decode rejects trailing bytes.
func decodeStrictWhole(raw []byte, v any) (bool, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return false, err
	}
	return dec.InputOffset() == int64(len(raw)), nil
}

// writerPrefixes pairs each record kind with the opening the writer
// gives its records: kind is the first field of every record struct.
var writerPrefixes = [...][2]string{
	{"job", `{"kind":"job",`},
	{"cell", `{"kind":"cell",`},
	{"done", `{"kind":"done",`},
}

// sniffKind returns the record kind named by raw's writer prefix, or ""
// when raw does not open with one.
func sniffKind(raw []byte) string {
	for _, p := range writerPrefixes {
		if len(raw) >= len(p[1]) && string(raw[:len(p[1])]) == p[1] {
			return p[0]
		}
	}
	return ""
}

// record is one decoded post-header record; its kind says which field
// holds it.
type record struct {
	job  jobRecord
	cell cellRecord
	done doneRecord
}

// errUnknownKind is decode's answer for a kind outside the schema.
var errUnknownKind = errors.New("unknown record kind")

// decode decodes raw strictly as a record of the given kind. It returns
// the kind field as decoded, which a later "kind" key in raw overrides,
// and whether the record spans all of raw.
func (r *record) decode(kind string, raw []byte) (decodedKind string, whole bool, err error) {
	var v any
	var k *string
	switch kind {
	case "job":
		v, k = &r.job, &r.job.Kind
	case "cell":
		v, k = &r.cell, &r.cell.Kind
	case "done":
		v, k = &r.done, &r.done.Kind
	default:
		return "", false, errUnknownKind
	}
	whole, err = decodeStrictWhole(raw, v)
	return *k, whole, err
}

// replayState is the outcome of replaying one journal: every job the
// journal introduced (terminal or not) keyed by ID, in first-seen
// order.
type replayState struct {
	jobs  map[string]*Job
	order []string
}

// replayJournal decodes and applies a whole journal. A torn final line
// (no further non-blank content after it) is tolerated as crash debris:
// replay stops at the last valid record and reports how many bytes of
// valid prefix it consumed, so Open can drop the tail. Any other
// malformed line is a *DecodeError naming its line number.
func replayJournal(data []byte) (*replayState, error) {
	st := &replayState{jobs: make(map[string]*Job)}
	line := 0
	off := 0
	sawHeader := false
	for off < len(data) {
		end := bytes.IndexByte(data[off:], '\n')
		last := end < 0
		var raw []byte
		if last {
			raw = data[off:]
			off = len(data)
		} else {
			raw = data[off : off+end]
			off += end + 1
		}
		line++
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}

		// A final line that is not even valid JSON is the torn tail of a
		// crashed append: the fsync that would have acknowledged it never
		// returned, so the writer never observed it as committed. Drop it
		// and recover. A complete-but-wrong line (valid JSON failing the
		// schema), or garbage followed by more content, is real
		// corruption and errors below.
		if tailBlank(data[off:]) && !json.Valid(raw) {
			return st, nil
		}

		if !sawHeader {
			var hd headerRecord
			if err := decodeStrict(raw, &hd); err != nil || hd.Kind != "header" {
				return nil, &DecodeError{Line: line, Kind: ErrHeader,
					Msg: fmt.Sprintf("journal does not open with a header record: %s", firstOf(err, "wrong kind"))}
			}
			if hd.Version != Version {
				return nil, &DecodeError{Line: line, Kind: ErrVersion,
					Msg: fmt.Sprintf("unsupported journal version %q (this store speaks %q)", hd.Version, Version)}
			}
			sawHeader = true
			continue
		}

		if err := st.apply(line, raw); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// apply decodes one post-header record and folds it into the state.
// A record as the writer produced it is decoded once: its kind is
// sniffed from the prefix and the line decoded strictly into that
// kind's shape. Unless that decode succeeds, spans the whole line and
// confirms the sniffed kind (a later "kind" key overrides the first),
// the line takes the general path, a kind probe and then the strict
// decode, which gives every typed error at its line.
func (st *replayState) apply(line int, raw []byte) error {
	var rec record
	kind := sniffKind(raw)
	if kind != "" {
		if got, whole, err := rec.decode(kind, raw); err != nil || !whole || got != kind {
			kind = ""
		}
	}
	if kind == "" {
		var probe kindProbe
		if err := json.Unmarshal(raw, &probe); err != nil {
			return &DecodeError{Line: line, Kind: ErrSyntax, Msg: err.Error()}
		}
		kind, rec = probe.Kind, record{}
		if _, _, err := rec.decode(kind, raw); err == errUnknownKind {
			return &DecodeError{Line: line, Kind: ErrUnknownKind,
				Msg: fmt.Sprintf("unknown record kind %q", kind)}
		} else if err != nil {
			return &DecodeError{Line: line, Kind: ErrSyntax, Msg: err.Error()}
		}
	}
	switch kind {
	case "job":
		r := &rec.job
		j, ok := st.jobs[r.ID]
		if !ok {
			j = &Job{Cells: make(map[int]CellResult)}
			st.jobs[r.ID] = j
			st.order = append(st.order, r.ID)
		}
		j.Meta = JobMeta{
			ID: r.ID, Spec: r.Spec, Seed: r.Seed, Scale: r.Scale,
			Parallel: r.Parallel, Created: time.Unix(0, r.CreatedNS).UTC(),
		}
	case "cell":
		r := &rec.cell
		j, ok := st.jobs[r.Job]
		if !ok {
			return &DecodeError{Line: line, Kind: ErrUnknownJob,
				Msg: fmt.Sprintf("cell record for job %q the journal never introduced", r.Job)}
		}
		j.Cells[r.Index] = CellResult{Index: r.Index, Key: r.Key, Node: r.Node, Stat: r.Stat, Result: r.Result}
	case "done":
		r := &rec.done
		j, ok := st.jobs[r.Job]
		if !ok {
			return &DecodeError{Line: line, Kind: ErrUnknownJob,
				Msg: fmt.Sprintf("done record for job %q the journal never introduced", r.Job)}
		}
		j.State, j.Error = r.State, r.Error
	}
	return nil
}

// tailBlank reports whether rest holds no further content — the
// condition under which a malformed line is the journal's torn tail
// rather than mid-log corruption.
func tailBlank(rest []byte) bool {
	return len(bytes.TrimSpace(rest)) == 0
}

// firstOf renders err, falling back to alt when err is nil.
func firstOf(err error, alt string) string {
	if err != nil {
		return err.Error()
	}
	return alt
}
