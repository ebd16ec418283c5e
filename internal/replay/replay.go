package replay

import (
	"fmt"
	"io"

	"rhohammer/internal/campaign"
	"rhohammer/internal/dram"
	"rhohammer/internal/refmodel"
)

// verdictFlipCap bounds the per-flip detail carried in a Verdict so a
// long trace cannot balloon the envelope; FlipCount always holds the
// full total and FlipsTruncated records that the list was cut.
const verdictFlipCap = 512

// FlipRecord is one replayed bit flip.
type FlipRecord struct {
	Bank      int     `json:"bank"`
	Row       uint64  `json:"row"`
	Byte      int     `json:"byte"`
	Bit       int     `json:"bit"`
	OneToZero bool    `json:"one_to_zero"`
	TimeNS    float64 `json:"t_ns"`
}

// Verdict is the canonical replay outcome: what the command stream did
// to a fresh device under the differential oracle. It is deterministic
// in (trace, DIMM, seed) — the serve layer's byte-identity contract
// extends to replay jobs unchanged.
type Verdict struct {
	// DIMM and Seed echo the resolved replay parameters.
	DIMM string `json:"dimm"`
	Seed int64  `json:"seed"`
	// Commands / Acts / Refs / Resets count the replayed stream.
	Commands int `json:"commands"`
	Acts     int `json:"acts"`
	Refs     int `json:"refs"`
	Resets   int `json:"resets,omitempty"`
	// Counters is the substrate counter snapshot, accumulated across
	// reset boundaries so mid-trace resets do not erase history.
	Counters dram.Counters `json:"counters"`
	// FlipCount is the total replayed flips; Flips carries the first
	// verdictFlipCap of them in event order.
	FlipCount      int          `json:"flip_count"`
	Flips          []FlipRecord `json:"flips,omitempty"`
	FlipsTruncated bool         `json:"flips_truncated,omitempty"`
	// RecordedFlips is how many flip annotations the trace carried;
	// RecordedMissing how many of them the replay failed to reproduce
	// in order (0 = the recorded flip set is a subsequence of the
	// replayed one, i.e. the round-trip holds).
	RecordedFlips   int `json:"recorded_flips"`
	RecordedMissing int `json:"recorded_missing"`
	// Divergence is the refmodel auditor's first-divergence report, or
	// empty when the fast substrate and the reference model agree.
	Divergence string `json:"divergence,omitempty"`
}

// Run replays a decoded trace into a fresh dram.Device with the
// refmodel auditor attached and reports the verdict. It never errors:
// oracle disagreement is data (Verdict.Divergence), not a failure to
// replay.
func Run(f *File) *Verdict {
	dev := dram.NewDevice(f.DIMM, f.Seed)
	aud := refmodel.NewAuditor(dev)
	v := &Verdict{DIMM: f.DIMMID, Seed: f.Seed, Commands: len(f.Cmds)}

	var flips []dram.Flip
	var acc dram.Counters
	accumulate := func() {
		c := dev.Counters()
		acc.ACTs += c.ACTs
		acc.REFs += c.REFs
		acc.TRRTriggers += c.TRRTriggers
		acc.RFMEvents += c.RFMEvents
		acc.RowSwapRelocations += c.RowSwapRelocations
		acc.Flips += c.Flips
	}
	for _, c := range f.Cmds {
		switch c.Kind {
		case CmdAct:
			dev.Activate(c.Bank, c.Row, c.At)
			v.Acts++
		case CmdRef:
			dev.Refresh(c.At)
			v.Refs++
		case CmdReset:
			// Reset recycles the device's flip slice and zeroes its
			// counters, so both are snapshotted first.
			flips = append(flips, dev.Flips()...)
			accumulate()
			dev.Reset()
			v.Resets++
		}
	}
	flips = append(flips, dev.Flips()...)
	accumulate()
	if err := aud.Check(); err != nil {
		v.Divergence = err.Error()
	}

	v.Counters = acc
	v.FlipCount = len(flips)
	n := len(flips)
	if n > verdictFlipCap {
		n, v.FlipsTruncated = verdictFlipCap, true
	}
	for _, fl := range flips[:n] {
		v.Flips = append(v.Flips, FlipRecord{
			Bank: fl.Bank, Row: fl.Row, Byte: fl.ByteInRow, Bit: int(fl.Bit),
			OneToZero: fl.OneToZero, TimeNS: fl.Time,
		})
	}
	v.RecordedFlips = len(f.RecordedFlips)
	v.RecordedMissing = missingRecorded(f.RecordedFlips, flips)
	return v
}

// missingRecorded counts recorded flip annotations that the replayed
// flip sequence does not contain as an in-order subsequence. 0 means
// every flip the recording session logged reappeared, in order, in the
// replay.
func missingRecorded(rec []FlipKey, got []dram.Flip) int {
	missing, j := 0, 0
	for _, r := range rec {
		found := false
		for j < len(got) {
			g := got[j]
			j++
			if g.Bank == r.Bank && g.Row == r.Row &&
				int64(g.ByteInRow)*8+int64(g.Bit) == r.N && g.Time == r.At {
				found = true
				break
			}
		}
		if !found {
			missing++
		}
	}
	return missing
}

// Render implements experiments.Renderer so replay verdicts flow
// through the same text path as registered campaigns.
func (v *Verdict) Render(w io.Writer) {
	fmt.Fprintf(w, "replay: dimm=%s seed=%d commands=%d (%d acts, %d refs, %d resets)\n",
		v.DIMM, v.Seed, v.Commands, v.Acts, v.Refs, v.Resets)
	fmt.Fprintf(w, "  flips=%d recorded=%d missing=%d trr_triggers=%d\n",
		v.FlipCount, v.RecordedFlips, v.RecordedMissing, v.Counters.TRRTriggers)
	if v.Divergence != "" {
		fmt.Fprintf(w, "  DIVERGENCE: %s\n", v.Divergence)
	} else {
		fmt.Fprintf(w, "  oracle: fast substrate and reference model agree\n")
	}
}

// Spec wraps a decoded trace as a one-cell campaign spec named by the
// trace's content hash, so replays ride the existing campaign
// machinery untouched: the serve layer's sharding, cancellation,
// retention and result cache all apply, and the canonical envelope is
// byte-identical at any shard count because the single cell's seed
// derives from (spec seed, cell key) exactly like every other
// campaign.
func Spec(f *File) campaign.Spec {
	s := campaign.Grid([]campaign.Cell{{Key: "replay"}},
		func(campaign.Cell, int64) (*Verdict, error) { return Run(f), nil },
		func(verdicts []*Verdict) any { return verdicts[0] })
	s.Name, s.Kind, s.Seed = "replay/"+f.Hash[:12], campaign.KindAux, f.Seed
	return s
}
