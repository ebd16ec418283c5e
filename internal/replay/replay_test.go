package replay

import (
	"bytes"
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
	"rhohammer/internal/hammer"
	"rhohammer/internal/obs"
	"rhohammer/internal/pattern"
)

// TestRunAccumulatesAcrossResets pins the reset semantics of the
// engine: a reset command wipes the device mid-replay (as ResetDevice
// does between sweep locations), but the verdict's counters and flip
// set accumulate across every segment.
func TestRunAccumulatesAcrossResets(t *testing.T) {
	trace := `{"seq":0,"t_ns":1,"layer":"dram","kind":"act","bank":1,"row":5}
{"seq":1,"t_ns":2,"layer":"dram","kind":"act","bank":1,"row":7}
{"seq":2,"t_ns":3,"layer":"dram","kind":"ref"}
{"seq":3,"layer":"dram","kind":"reset"}
{"seq":4,"t_ns":4,"layer":"dram","kind":"act","bank":2,"row":9}
`
	f, err := DecodeBytes([]byte(trace), Options{DIMM: "S3"})
	if err != nil {
		t.Fatal(err)
	}
	v := Run(f)
	if v.Commands != 5 || v.Acts != 3 || v.Refs != 1 || v.Resets != 1 {
		t.Errorf("verdict tallies = (cmds %d, acts %d, refs %d, resets %d), want (5, 3, 1, 1)",
			v.Commands, v.Acts, v.Refs, v.Resets)
	}
	if v.Counters.ACTs != 3 || v.Counters.REFs != 1 {
		t.Errorf("device counters did not accumulate across the reset: %+v", v.Counters)
	}
	if v.Divergence != "" {
		t.Errorf("unexpected divergence: %s", v.Divergence)
	}
}

// TestSessionTraceRoundTrip is the tentpole property end to end: a
// trace dumped by obs.Trace.WriteJSONL from a live hammer session —
// including a mid-run device reset — replays on a fresh device to the
// exact flip sequence the session observed, with the reference-model
// auditor reporting zero divergence.
func TestSessionTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("two 25ms hammer segments; skipped in -short")
	}
	a := arch.RaptorLake()
	d := arch.DIMMS4()
	const seed = 12345
	s, err := hammer.NewSession(a, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(1 << 20)
	s.AttachTrace(tr)
	cfg := hammer.RecommendedSingleBank(a)
	pat := pattern.KnownGood()

	var sessionFlips []dram.Flip
	var acts, trrs uint64
	if _, err := s.HammerPatternFor(pat, cfg, 0, 1000, 25e6); err != nil {
		t.Fatal(err)
	}
	sessionFlips = append(sessionFlips, s.Dev.Flips()...)
	acts += s.Dev.Counters().ACTs
	trrs += s.Dev.Counters().TRRTriggers
	s.ResetDevice()
	if _, err := s.HammerPatternFor(pat, cfg, 0, 2000, 25e6); err != nil {
		t.Fatal(err)
	}
	sessionFlips = append(sessionFlips, s.Dev.Flips()...)
	acts += s.Dev.Counters().ACTs
	trrs += s.Dev.Counters().TRRTriggers
	if len(sessionFlips) == 0 {
		t.Fatal("session produced no flips; the round-trip check would be vacuous")
	}
	if dr := tr.Dropped(); dr > 0 {
		t.Fatalf("trace ring dropped %d events; enlarge the test ring", dr)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	devSeed := hammer.DeviceSeed(seed)
	f, err := DecodeBytes(buf.Bytes(), Options{DIMM: d.ID, Seed: &devSeed})
	if err != nil {
		t.Fatal(err)
	}
	if f.Hash == "" {
		t.Error("decoded file has no content hash")
	}
	v := Run(f)

	if v.Divergence != "" {
		t.Fatalf("auditor divergence on replay: %s", v.Divergence)
	}
	if v.Resets != 1 {
		t.Errorf("replayed %d resets, want 1", v.Resets)
	}
	if v.Counters.ACTs != acts {
		t.Errorf("replayed %d ACTs, session issued %d", v.Counters.ACTs, acts)
	}
	if v.Counters.TRRTriggers != trrs {
		t.Errorf("replayed %d TRR triggers, session saw %d", v.Counters.TRRTriggers, trrs)
	}
	if v.RecordedMissing != 0 {
		t.Errorf("%d flips recorded in the trace were not reproduced", v.RecordedMissing)
	}
	if v.FlipCount != len(sessionFlips) {
		t.Fatalf("replayed %d flips, session observed %d", v.FlipCount, len(sessionFlips))
	}
	if v.FlipsTruncated {
		t.Fatalf("verdict truncated %d flips; test expects the full set", v.FlipCount)
	}
	for i, fl := range sessionFlips {
		got := v.Flips[i]
		want := FlipRecord{Bank: fl.Bank, Row: fl.Row, Byte: fl.ByteInRow, Bit: int(fl.Bit),
			OneToZero: fl.OneToZero, TimeNS: fl.Time}
		if got != want {
			t.Errorf("flip %d: replayed %+v, session observed %+v", i, got, want)
		}
	}
}

// TestTraceReplayMatchesLive drives the TRR-bypassing pattern straight
// through the memory controller, with no payload executor in between,
// and records the device's trace of it. Replayed on a fresh device
// under the reference-model auditor, the trace must reproduce the live
// run's flips exactly: the device trace is a complete record of
// everything the controller did that determines disturbance.
func TestTraceReplayMatchesLive(t *testing.T) {
	s, err := hammer.NewSession(arch.CometLake(), arch.DIMMS4(), 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(1 << 19)
	s.Dev.SetTrace(tr)
	// Decoys own the sampler while the true aggressor pairs accumulate
	// disturbance, so flips appear within a bounded access budget.
	seq := pattern.KnownGood().Render()
	const baseRow = 9000
	now := 0.0
	for pass := 0; pass < 6000 && len(s.Dev.Flips()) < 3; pass++ {
		for _, off := range seq {
			pa, err := s.Map.PhysAddr(0, baseRow+uint64(off), 0)
			if err != nil {
				t.Fatal(err)
			}
			now, _ = s.Ctrl.Access(pa, now)
		}
	}
	live := s.Dev.Flips()
	if len(live) == 0 {
		t.Fatal("live run produced no flips; replay test is vacuous")
	}
	if d := tr.Dropped(); d > 0 {
		t.Fatalf("trace ring dropped %d of %d events; enlarge the test ring", d, uint64(tr.Len())+d)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := DecodeBytes(buf.Bytes(), Options{DIMM: s.DIMM.ID, Seed: &s.Dev.Seed})
	if err != nil {
		t.Fatal(err)
	}
	v := Run(f)
	if v.Divergence != "" {
		t.Fatalf("auditor divergence on replay: %s", v.Divergence)
	}
	if v.RecordedMissing != 0 {
		t.Errorf("%d flips recorded in the trace were not reproduced", v.RecordedMissing)
	}
	if v.FlipCount != len(live) {
		t.Fatalf("replayed %d flips, live run had %d", v.FlipCount, len(live))
	}
	for i, fl := range live {
		want := FlipRecord{Bank: fl.Bank, Row: fl.Row, Byte: fl.ByteInRow, Bit: int(fl.Bit),
			OneToZero: fl.OneToZero, TimeNS: fl.Time}
		if v.Flips[i] != want {
			t.Errorf("flip %d: replayed %+v, live %+v", i, v.Flips[i], want)
		}
	}
}
