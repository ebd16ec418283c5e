package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"testing"
)

// TestTraceTruncatesWithoutReordering is the ring-buffer contract: when
// more events arrive than the bound retains, the kept window is exactly
// the most recent `cap` events, still in emission order, and Dropped
// accounts for the rest.
func TestTraceTruncatesWithoutReordering(t *testing.T) {
	const capacity, emitted = 64, 157
	tr := NewTrace(capacity)
	for i := 0; i < emitted; i++ {
		tr.Emit(Event{Layer: "dram", Kind: "act", Row: uint64(i)})
	}
	if tr.Len() != capacity {
		t.Fatalf("Len = %d, want %d", tr.Len(), capacity)
	}
	if got, want := tr.Dropped(), uint64(emitted-capacity); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	events := tr.Events()
	for i, e := range events {
		wantSeq := uint64(emitted - capacity + i)
		if e.Seq != wantSeq || e.Row != wantSeq {
			t.Fatalf("event %d = seq %d row %d, want %d (reordered or lost)", i, e.Seq, e.Row, wantSeq)
		}
		if i > 0 && e.Seq != events[i-1].Seq+1 {
			t.Fatalf("non-contiguous retained window at %d", i)
		}
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Emit(Event{Kind: "act"}) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil trace not inert")
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(Event{TimeNS: 1.5, Layer: "dram", Kind: "flip", Bank: 2, Row: 500, N: 3})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("invalid JSONL: %v", err)
	}
	if e.Kind != "flip" || e.Bank != 2 || e.Row != 500 || e.N != 3 {
		t.Fatalf("round trip = %+v", e)
	}
}

// TestCollectorDeterministicOrder checks that Traces dumps
// sessions in sorted key order regardless of registration order, so a
// trace file is identical for every worker schedule.
func TestCollectorDeterministicOrder(t *testing.T) {
	defer DisableTracing()
	EnableTracing(16)
	// Register out of sorted order.
	for _, seed := range []int64{0x30, 0x10, 0x20, 0x10} { // duplicate 0x10 gets #2
		tr := SessionTrace(seed)
		if tr == nil {
			t.Fatal("SessionTrace returned nil while enabled")
		}
		tr.Emit(Event{Layer: "hammer", Kind: "pattern", N: seed})
	}
	var buf bytes.Buffer
	if err := Traces.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var sessions []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, line.Session)
	}
	want := []string{
		"session-0000000000000010",
		"session-0000000000000010#2",
		"session-0000000000000020",
		"session-0000000000000030",
	}
	if len(sessions) != len(want) {
		t.Fatalf("sessions = %v", sessions)
	}
	for i := range want {
		if sessions[i] != want[i] {
			t.Fatalf("dump order %v, want %v", sessions, want)
		}
	}

	DisableTracing()
	if SessionTrace(1) != nil {
		t.Fatal("SessionTrace must return nil when disabled")
	}
}

// dumpSessions returns the "session" field of every line a JSONL trace
// dump writes.
func dumpSessions(t *testing.T, write func(io.Writer) error) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	var sessions []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, line.Session)
	}
	return sessions
}

// TestCaptureRouting pins where SessionTrace puts a seed's ring: a
// capture that reserved the seed takes it ahead of the process-wide
// Traces, captures sharing a seed take turns, Release hands the seed
// back, a capture records with tracing off, and a seed nothing takes
// gets no ring.
func TestCaptureRouting(t *testing.T) {
	defer DisableTracing()
	record := func(t *testing.T, seed int64) {
		t.Helper()
		tr := SessionTrace(seed)
		if tr == nil {
			t.Fatalf("SessionTrace(%#x) = nil, want a ring", seed)
		}
		tr.Emit(Event{Layer: "hammer", Kind: "pattern", N: seed})
	}

	t.Run("reserved seed stays out of Traces", func(t *testing.T) {
		EnableTracing(16)
		defer DisableTracing()
		c := NewCapture(16)
		c.Reserve(0x11)
		defer c.Release()
		record(t, 0x11)
		record(t, 0x22)
		if got, want := dumpSessions(t, c.WriteJSONL), []string{"session-0000000000000011"}; !slices.Equal(got, want) {
			t.Errorf("capture dump sessions = %v, want %v", got, want)
		}
		if got, want := dumpSessions(t, Traces.WriteJSONL), []string{"session-0000000000000022"}; !slices.Equal(got, want) {
			t.Errorf("Traces dump sessions = %v, want %v", got, want)
		}
	})

	t.Run("captures sharing a seed take turns", func(t *testing.T) {
		a, b := NewCapture(16), NewCapture(16)
		a.Reserve(0x33)
		b.Reserve(0x33)
		defer a.Release()
		defer b.Release()
		for i := 0; i < 4; i++ {
			record(t, 0x33)
		}
		if a.Len() != 2 || b.Len() != 2 {
			t.Errorf("captures hold %d and %d rings, want 2 and 2", a.Len(), b.Len())
		}
		want := []string{"session-0000000000000033", "session-0000000000000033#2"}
		if got := dumpSessions(t, a.WriteJSONL); !slices.Equal(got, want) {
			t.Errorf("first capture dump sessions = %v, want %v", got, want)
		}
	})

	t.Run("release falls back to Traces", func(t *testing.T) {
		EnableTracing(16)
		defer DisableTracing()
		c := NewCapture(16)
		c.Reserve(0x44)
		record(t, 0x44)
		c.Release()
		record(t, 0x44)
		if c.Len() != 1 {
			t.Errorf("capture holds %d rings after Release, want 1", c.Len())
		}
		if got, want := dumpSessions(t, c.WriteJSONL), []string{"session-0000000000000044"}; !slices.Equal(got, want) {
			t.Errorf("released capture dump sessions = %v, want %v", got, want)
		}
		if got, want := dumpSessions(t, Traces.WriteJSONL), []string{"session-0000000000000044"}; !slices.Equal(got, want) {
			t.Errorf("Traces dump sessions = %v, want %v", got, want)
		}
	})

	t.Run("capture records with tracing off", func(t *testing.T) {
		DisableTracing()
		c := NewCapture(16)
		c.Reserve(0x55)
		defer c.Release()
		record(t, 0x55)
		if c.Len() != 1 {
			t.Errorf("capture holds %d rings, want 1", c.Len())
		}
		if got := dumpSessions(t, Traces.WriteJSONL); len(got) != 0 {
			t.Errorf("Traces dumped %v with tracing off", got)
		}
	})

	t.Run("nothing takes the seed", func(t *testing.T) {
		DisableTracing()
		if SessionTrace(0x66) != nil {
			t.Error("SessionTrace returned a ring no capture reserved while tracing is off")
		}
	})
}
