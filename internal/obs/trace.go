package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event is one structured trace record. Layer names the emitting
// subsystem (dram, hammer), Kind the event class
// (act, ref, reset, trr, flip, blast, pattern, tune). The numeric
// fields are interpreted per kind; N is a generic magnitude (flips for
// a pattern event, weak cells for a blast event, the chosen NOP count
// for a tune event). The act/ref/reset kinds form a replayable command
// stream: internal/replay decodes a JSONL dump of them back into
// substrate commands and reproduces the recording session's flips.
type Event struct {
	Seq    uint64  `json:"seq"`
	TimeNS float64 `json:"t_ns,omitempty"`
	Layer  string  `json:"layer"`
	Kind   string  `json:"kind"`
	Bank   int     `json:"bank,omitempty"`
	Row    uint64  `json:"row,omitempty"`
	N      int64   `json:"n,omitempty"`
}

// Trace is a bounded ring buffer of events. It is single-writer by
// contract (one hammer session, which is single-goroutine); readers
// run after the writer is done. When the buffer is full the oldest
// events are overwritten — the retained suffix stays in emission order
// and Dropped counts the truncation.
//
// A nil *Trace is a valid disabled trace: Emit on nil is a no-op, so
// holders can keep an unconditional field and skip the branch.
type Trace struct {
	buf     []Event
	start   int // index of the oldest retained event
	n       int // number of retained events
	seq     uint64
	dropped uint64
}

// DefaultTraceCap is the per-session ring capacity used when tracing
// is enabled without an explicit size: large enough to hold the full
// TRR/flip/pattern history of a CI-sized cell, small enough that a
// campaign with hundreds of cells stays in tens of megabytes.
const DefaultTraceCap = 8192

// NewTrace returns a ring buffer retaining at most capacity events
// (DefaultTraceCap when capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{buf: make([]Event, 0, capacity)}
}

// Emit appends an event, stamping its sequence number. Nil-safe.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	e.Seq = t.seq
	t.seq++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		t.n++
		return
	}
	// Full: overwrite the oldest slot. The ring never reorders — the
	// retained window is always the most recent cap(buf) events in
	// emission order.
	t.buf[t.start] = e
	t.start = (t.start + 1) % len(t.buf)
	t.dropped++
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events were overwritten by the bound.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%len(t.buf)])
	}
	return out
}

// WriteJSONL writes the retained events as one JSON object per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Capture collects the session traces of one bounded scope under
// seed-derived keys, so its dump order is a pure function of the seeds
// — deterministic for every worker count and schedule (cell keys map to
// seeds through the run manifest). Reserve routes future SessionTrace
// calls for a seed into the capture and Release detaches it; the serve
// layer keeps one capture per job.
type Capture struct {
	capPer int
	// seeds are the reservations to undo on Release; traces holds the
	// registered rings by key. Both are guarded by traceMu.
	seeds  []int64
	traces map[string]*Trace
}

var (
	// traceMu guards tracing, reserved and every Capture.
	traceMu sync.Mutex
	// tracing reports whether EnableTracing armed Traces.
	tracing bool
	// reserved routes SessionTrace calls for a seed to the captures that
	// reserved it, independently of tracing. Several captures reserving
	// one seed take turns, so concurrent identical jobs each record
	// their own rings.
	reserved = map[int64][]*Capture{}
)

// Traces is the process-wide capture: while armed by EnableTracing
// (cmd/experiments -trace, RHOHAMMER_TRACE) it takes every session seed
// no other capture reserved.
var Traces = NewCapture(0)

// TraceEnv is the environment variable the commands consult for a
// default trace output path, mirroring hammer.SimcheckEnv: it reaches
// sessions created deep inside experiment code without threading a
// flag through every constructor.
const TraceEnv = "RHOHAMMER_TRACE"

// EnableTracing arms Traces: every hammer session created afterwards
// whose seed no capture reserved records into its own bounded ring of
// the given capacity (<= 0 means DefaultTraceCap).
func EnableTracing(capPerSession int) {
	traceMu.Lock()
	defer traceMu.Unlock()
	tracing = true
	Traces.capPer = capPerSession
}

// DisableTracing disarms Traces and drops its rings.
func DisableTracing() {
	traceMu.Lock()
	defer traceMu.Unlock()
	tracing = false
	clear(Traces.traces)
}

// SessionTrace returns a new ring registered under the session's seed,
// or nil when nothing takes the seed. A capture that reserved the seed
// takes it first (whether or not tracing is armed), then the armed
// Traces. Seeds are unique per campaign cell (stats.SplitSeed over the
// spec name and cell key), so concurrent cells never share a ring;
// identical seeds (e.g. repeated manual sessions) get a #n suffix in
// registration order.
func SessionTrace(seed int64) *Trace {
	traceMu.Lock()
	defer traceMu.Unlock()
	if list := reserved[seed]; len(list) > 0 {
		c := list[0]
		if len(list) > 1 {
			// Round-robin so concurrent jobs sharing a seed each fill
			// their own capture rather than one capture taking all rings.
			copy(list, list[1:])
			list[len(list)-1] = c
		}
		return c.register(seed)
	}
	if !tracing {
		return nil
	}
	return Traces.register(seed)
}

// NewCapture returns an empty capture whose rings retain at most
// capPerSession events each (<= 0 means DefaultTraceCap).
func NewCapture(capPerSession int) *Capture {
	return &Capture{capPer: capPerSession, traces: map[string]*Trace{}}
}

// Reserve routes SessionTrace(seed) calls into this capture until
// Release. Reserving the same seed again is a no-op.
func (c *Capture) Reserve(seed int64) {
	traceMu.Lock()
	defer traceMu.Unlock()
	for _, s := range c.seeds {
		if s == seed {
			return
		}
	}
	reserved[seed] = append(reserved[seed], c)
	c.seeds = append(c.seeds, seed)
}

// Release undoes every reservation. The captured rings stay readable;
// sessions created afterwards fall back to Traces.
func (c *Capture) Release() {
	traceMu.Lock()
	defer traceMu.Unlock()
	for _, seed := range c.seeds {
		list := reserved[seed]
		kept := list[:0]
		for _, cc := range list {
			if cc != c {
				kept = append(kept, cc)
			}
		}
		if len(kept) == 0 {
			delete(reserved, seed)
		} else {
			reserved[seed] = kept
		}
	}
	c.seeds = nil
}

// register creates a new ring in the capture under session-%016x,
// with a #n suffix when that key is already taken. Caller holds
// traceMu.
func (c *Capture) register(seed int64) *Trace {
	key := fmt.Sprintf("session-%016x", uint64(seed))
	if _, dup := c.traces[key]; dup {
		for i := 2; ; i++ {
			k := fmt.Sprintf("%s#%d", key, i)
			if _, dup := c.traces[k]; !dup {
				key = k
				break
			}
		}
	}
	t := NewTrace(c.capPer)
	c.traces[key] = t
	return t
}

// Len reports how many session rings the capture holds.
func (c *Capture) Len() int {
	traceMu.Lock()
	defer traceMu.Unlock()
	return len(c.traces)
}

// WriteJSONL dumps the captured traces as JSONL: sessions in sorted key
// order, events within a session in emission order, each line stamped
// with a "session" field naming its ring. A ring that overflowed ends
// with a "truncated" marker line, so downstream consumers — the replay
// codec in particular — can refuse an incomplete command stream instead
// of replaying it wrong.
func (c *Capture) WriteJSONL(w io.Writer) error {
	traceMu.Lock()
	keys := make([]string, 0, len(c.traces))
	for k := range c.traces {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	traces := make([]*Trace, len(keys))
	for i, k := range keys {
		traces[i] = c.traces[k]
	}
	traceMu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, key := range keys {
		for _, e := range traces[i].Events() {
			line := struct {
				Session string `json:"session"`
				Event
			}{Session: key, Event: e}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
		if d := traces[i].Dropped(); d > 0 {
			if _, err := fmt.Fprintf(bw, "{\"session\":%q,\"kind\":\"truncated\",\"n\":%d}\n", key, d); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
