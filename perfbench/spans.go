package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory for the traced run; the benchmark writes
// them out when the run ends. A nil *tracer records nothing, so the
// untraced run pays one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one call into a layer, recorded from the benchmark's side of
// the boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"` // <module>.<call>
	Op     string `json:"op"`   // shared by the spans of one cell, recovery or job
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t  *tracer
	id int
}

// begin opens a span named name for operation op under parent (nil for
// a root span).
func (t *tracer) begin(name, op string, parent *spanRef) *spanRef {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Name: name, Op: op, Start: now, End: -1}
	if parent != nil {
		s.Parent = parent.id
	}
	t.spans = append(t.spans, s)
	return &spanRef{t: t, id: s.ID}
}

func (r *spanRef) end() {
	if r == nil {
		return
	}
	now := time.Since(r.t.t0).Nanoseconds()
	r.t.mu.Lock()
	r.t.spans[r.id-1].End = now
	r.t.mu.Unlock()
}

// record adds an already-measured interval (from server-side
// timestamps) as a root span.
func (t *tracer) record(name, op string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// callStats aggregates the closed spans of one name.
type callStats struct {
	Calls int
	SelfS float64
	durMS []float64 // per-call durations, for medians
}

// summarize returns per-name statistics. A span's self time is its
// duration minus the part of it that its child spans cover.
func (t *tracer) summarize() map[string]*callStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*callStats{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		self := d - covered(children[s.ID], s.Start, s.End)
		cs := out[s.Name]
		if cs == nil {
			cs = &callStats{}
			out[s.Name] = cs
		}
		cs.Calls++
		cs.SelfS += float64(self) / 1e9
		cs.durMS = append(cs.durMS, float64(d)/1e6)
	}
	return out
}

// covered returns how much of [lo, hi] the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// write saves every span as JSONL.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
