package experiments

import (
	"fmt"
	"io"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/hammer"
	"rhohammer/internal/pattern"
	"rhohammer/internal/sweep"
)

// AblationRow is one counter-speculation variant's outcome.
type AblationRow struct {
	Arch     string
	Variant  string
	Flips    int
	MissRate float64
}

// AblationResult isolates the two counter-speculation ingredients of
// §4.4 — control-flow obfuscation and NOP pseudo-barriers — on the
// platforms where they matter. The paper presents them as a package;
// this ablation shows both are needed on Raptor Lake: obfuscation alone
// leaves the OoO share of the window open, and NOPs alone leave the
// branch-prediction share open (requiring far more NOPs at a rate cost).
type AblationResult struct{ Rows []AblationRow }

// ablationCSSpec sweeps the best pattern under the four
// obfuscation/NOP combinations.
func ablationCSSpec(cfg Config) campaign.Spec {
	budget := campaign.Budget{
		Locations:  cfg.scaled(6, 3),
		DurationNS: float64(cfg.scaled(150, 100)) * 1e6,
	}
	var cells []campaign.Cell
	for _, a := range []*arch.Arch{arch.AlderLake(), arch.RaptorLake()} {
		nops := hammer.TunedNops(a)
		for _, v := range []struct {
			name string
			hcfg hammer.Config
		}{
			{"neither", hammer.Config{Instr: hammer.InstrPrefetchT2, Banks: 1}},
			{"obfuscation only", hammer.Config{Instr: hammer.InstrPrefetchT2, Banks: 1, Obfuscate: true}},
			{"nops only", hammer.Config{Instr: hammer.InstrPrefetchT2, Banks: 1, Barrier: hammer.BarrierNop, Nops: nops}},
			{"both (rhoHammer)", hammer.Config{Instr: hammer.InstrPrefetchT2, Banks: 1, Barrier: hammer.BarrierNop, Nops: nops, Obfuscate: true}},
		} {
			cells = append(cells, campaign.Cell{
				Key:  a.Name + "/" + v.name,
				Arch: a, DIMM: DefaultDIMM(), Config: v.hcfg,
				Pattern: pattern.KnownGood(), Budget: budget, Aux: v.name,
			})
		}
	}
	return campaign.Grid(cells,
		sweepCell(func(c campaign.Cell, s *hammer.Session, res sweep.Result) AblationRow {
			var miss float64
			// Measure the configuration's ordering directly with a short
			// probe at a fresh location.
			probe, err := s.HammerPatternFor(c.Pattern, c.Config, 0, 30000, 20e6)
			if err == nil {
				miss = probe.MissRate()
			}
			return AblationRow{
				Arch: c.Arch.Name, Variant: c.Aux.(string),
				Flips: res.TotalFlips, MissRate: miss,
			}
		}),
		func(rows []AblationRow) any { return &AblationResult{Rows: rows} })
}

// Render implements Renderer.
func (a *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Counter-speculation ablation (single-bank prefetch)\n")
	fmt.Fprintf(w, "%-12s %-18s %8s %10s\n", "Arch", "Variant", "Flips", "MissRate")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%-12s %-18s %8d %10.2f\n", r.Arch, r.Variant, r.Flips, r.MissRate)
	}
}

// SamplerAblationRow is one TRR-sampler-capacity outcome.
type SamplerAblationRow struct {
	SamplerSize int
	Flips       int
}

// SamplerAblationResult probes how TRR sampler capacity affects
// ρHammer's yield — the design dimension DIMM vendors control.
type SamplerAblationResult struct {
	Arch string
	Rows []SamplerAblationRow
}

// ablationSamplerSpec sweeps the DIMM's TRR sampler capacity.
func ablationSamplerSpec(cfg Config) campaign.Spec {
	a := arch.CometLake()
	budget := campaign.Budget{
		Locations:  cfg.scaled(4, 2),
		DurationNS: float64(cfg.scaled(150, 100)) * 1e6,
	}
	var cells []campaign.Cell
	for _, size := range []int{2, 4, 6, 10, 16, 24} {
		d := DefaultDIMM()
		d.TRRSamplerSize = size
		cells = append(cells, campaign.Cell{
			Key:  fmt.Sprintf("sampler-%d", size),
			Arch: a, DIMM: d, Config: hammer.RecommendedSingleBank(a),
			Pattern: pattern.KnownGood(), Budget: budget, Aux: size,
		})
	}
	return campaign.Grid(cells,
		sweepCell(func(c campaign.Cell, _ *hammer.Session, res sweep.Result) SamplerAblationRow {
			return SamplerAblationRow{SamplerSize: c.Aux.(int), Flips: res.TotalFlips}
		}),
		func(rows []SamplerAblationRow) any { return &SamplerAblationResult{Arch: a.Name, Rows: rows} })
}

// Render implements Renderer.
func (s *SamplerAblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "TRR sampler capacity ablation on %s (rhoHammer, KnownGood pattern)\n", s.Arch)
	fmt.Fprintf(w, "%8s %8s\n", "Sampler", "Flips")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%8d %8d\n", r.SamplerSize, r.Flips)
	}
}
