package experiments

import (
	"bytes"
	"fmt"
	"io"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/dram"
	"rhohammer/internal/hammer"
	"rhohammer/internal/obs"
	"rhohammer/internal/pattern"
	"rhohammer/internal/replay"
)

// replayTraceCap sizes the per-cell trace ring for the round-trip
// campaign: it must hold every event the hammer session emits, because
// a ring that wraps loses the command prefix and the replay codec
// (correctly) refuses truncated traces. 25 ms of single-bank prefetch
// hammering emits ~440k events, leaving ~15% headroom.
const replayTraceCap = 1 << 19

// ReplayRoundTripRow is one cell of the replay-roundtrip campaign: a
// live hammer session's trace replayed through the differential
// oracle, with the replayed flip set checked against the session's.
type ReplayRoundTripRow struct {
	Key             string `json:"key"`
	Acts            uint64 `json:"acts"`
	SessionFlips    int    `json:"session_flips"`
	ReplayedFlips   int    `json:"replayed_flips"`
	RecordedMissing int    `json:"recorded_missing"`
	TRRTriggers     uint64 `json:"trr_triggers"`
	// Match is the round-trip property: the replay reproduced exactly
	// the session's flip sequence and TRR trigger count, with zero
	// auditor divergence.
	Match      bool   `json:"match"`
	Divergence string `json:"divergence,omitempty"`
}

// ReplayRoundTripResult renders the replay-roundtrip campaign.
type ReplayRoundTripResult struct {
	Rows []ReplayRoundTripRow `json:"rows"`
}

// replayRoundTripSpec builds the replay-roundtrip campaign: for each
// (arch, DIMM) cell, hammer a known-good pattern in a live session
// with a trace ring attached, dump the trace via obs.Trace.WriteJSONL,
// decode it with internal/replay, replay it into a fresh device with
// the refmodel auditor attached, and pin that the replayed flip set is
// exactly the session's. This is the CI anchor for the trace-replay
// contract (and a golden-pinnable artifact like every other campaign).
func replayRoundTripSpec(cfg Config) campaign.Spec {
	a := arch.RaptorLake()
	// The duration is deliberately scale-independent: 25 ms is the
	// shortest single-location run that reliably produces flips on the
	// vulnerable modules (so the round-trip pins a non-empty flip set)
	// while still fitting the trace ring; scaling it up would overflow
	// the ring and scaling it down would leave the property vacuous.
	budget := campaign.Budget{DurationNS: 25e6}
	var cells []campaign.Cell
	for _, d := range []*arch.DIMM{arch.DIMMS3(), arch.DIMMS4()} {
		cells = append(cells, campaign.Cell{
			Key: a.Name + "/" + d.ID, Arch: a, DIMM: d,
			Config:  hammer.RecommendedSingleBank(a),
			Pattern: pattern.KnownGood(),
			Budget:  budget,
		})
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (ReplayRoundTripRow, error) {
			s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
			if err != nil {
				return ReplayRoundTripRow{}, err
			}
			tr := obs.NewTrace(replayTraceCap)
			s.AttachTrace(tr)
			if _, err := s.HammerPatternFor(c.Pattern, c.Config, 0, 1000, c.Budget.DurationNS); err != nil {
				return ReplayRoundTripRow{}, err
			}
			sessionFlips := append([]dram.Flip(nil), s.Dev.Flips()...)
			sessionCounters := s.Dev.Counters()
			if d := tr.Dropped(); d > 0 {
				return ReplayRoundTripRow{}, fmt.Errorf("replay-roundtrip %s: trace ring dropped %d events; raise replayTraceCap", c.Key, d)
			}
			var buf bytes.Buffer
			if err := tr.WriteJSONL(&buf); err != nil {
				return ReplayRoundTripRow{}, err
			}
			devSeed := hammer.DeviceSeed(seed)
			f, err := replay.DecodeBytes(buf.Bytes(), replay.Options{DIMM: c.DIMM.ID, Seed: &devSeed})
			if err != nil {
				return ReplayRoundTripRow{}, err
			}
			v := replay.Run(f)
			row := ReplayRoundTripRow{
				Key:             c.Key,
				Acts:            v.Counters.ACTs,
				SessionFlips:    len(sessionFlips),
				ReplayedFlips:   v.FlipCount,
				RecordedMissing: v.RecordedMissing,
				TRRTriggers:     v.Counters.TRRTriggers,
				Divergence:      v.Divergence,
			}
			row.Match = v.Divergence == "" &&
				v.RecordedMissing == 0 &&
				v.FlipCount == len(sessionFlips) &&
				v.Counters.TRRTriggers == sessionCounters.TRRTriggers
			return row, nil
		},
		func(rows []ReplayRoundTripRow) any { return &ReplayRoundTripResult{Rows: rows} })
}

// Render implements Renderer.
func (r *ReplayRoundTripResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Replay round-trip: recorded session traces through the differential oracle\n")
	fmt.Fprintf(w, "%-18s %9s %7s %7s %8s %6s %s\n", "Cell", "ACTs", "Flips", "Replay", "Missing", "TRR", "Match")
	for _, row := range r.Rows {
		match := "OK"
		if !row.Match {
			match = "MISMATCH"
			if row.Divergence != "" {
				match = "DIVERGED"
			}
		}
		fmt.Fprintf(w, "%-18s %9d %7d %7d %8d %6d %s\n",
			row.Key, row.Acts, row.SessionFlips, row.ReplayedFlips,
			row.RecordedMissing, row.TRRTriggers, match)
	}
}
