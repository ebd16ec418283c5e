package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"rhohammer/internal/campaign"
)

// JSON export: every experiment result marshals to a stable JSON form so
// the figures can be replotted with external tooling. The structured
// result types already carry json-friendly fields; this file provides
// the one envelope and its writer, used by cmd/experiments -json and
// serverd's result endpoint.

// Envelope wraps one experiment's result with its identity, the
// configuration that produced it, and the campaign's per-cell stats.
// It is canonical: a pure function of (experiment, seed, scale),
// byte-identical across runs, worker counts and machines. How one run
// executed (its workers, wall time and per-cell wall times) is the obs
// run manifest's to record, so every cell's wall time is zero here.
type Envelope struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	// Cells surfaces each cell's key, derived seed, attempts and error
	// text (campaign.CellStat); every cell is individually replayable
	// from its seed.
	Cells  []campaign.CellStat `json:"cells,omitempty"`
	Result any                 `json:"result"`
}

// WriteEnvelope emits out's result as the indented canonical envelope.
// The cell seeds, keys, attempt counts and the result itself are
// copied as they are; the cells' wall times are zeroed.
func WriteEnvelope(w io.Writer, experiment string, cfg Config, out *campaign.Outcome) error {
	cfg = cfg.withDefaults()
	env := Envelope{
		Experiment: experiment,
		Seed:       cfg.Seed,
		Scale:      cfg.Scale,
		Cells:      make([]campaign.CellStat, len(out.Cells)),
		Result:     out.Result,
	}
	copy(env.Cells, out.Cells)
	for i := range env.Cells {
		env.Cells[i].Wall = 0
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("experiments: encoding %s: %w", experiment, err)
	}
	return nil
}

// fig4JSON flattens Fig4Result's map-keyed matrix for serialization.
type fig4JSON struct {
	Archs []string     `json:"archs"`
	Bits  []uint       `json:"bits"`
	Cells [][]fig4Cell `json:"cells"`
	Thres []float64    `json:"thresholds_ns"`
}

type fig4Cell struct {
	BX   uint    `json:"bx"`
	BY   uint    `json:"by"`
	NS   float64 `json:"latency_ns"`
	Slow bool    `json:"sbdr"`
}

// MarshalJSON implements json.Marshaler for the heatmap result (maps
// with array keys are not directly serializable).
func (f *Fig4Result) MarshalJSON() ([]byte, error) {
	out := fig4JSON{Archs: f.Archs, Bits: f.Bits, Thres: f.Thres}
	for ai := range f.Archs {
		var cells []fig4Cell
		for k, v := range f.Matrix[ai] {
			cells = append(cells, fig4Cell{BX: k[0], BY: k[1], NS: v, Slow: v > f.Thres[ai]})
		}
		out.Cells = append(out.Cells, cells)
	}
	return json.Marshal(out)
}
