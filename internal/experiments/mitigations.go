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

// MitigationRow is one (mitigation, strategy) outcome.
type MitigationRow struct {
	Mitigation string
	Strategy   string
	Flips      int
	Events     uint64 // mitigation actions taken (TRR/pTRR/RFM/swap)
}

// MitigationsResult reproduces the §6 discussion: how the platform pTRR
// option, DDR5 refresh management and randomized row-swapping fare
// against ρHammer's strongest configuration on Raptor Lake.
type MitigationsResult struct{ Rows []MitigationRow }

// mitigationSetup carries a cell's defense knobs through Aux: the
// session-level switches Exec must flip after construction.
type mitigationSetup struct {
	defense  string
	strategy string
	ptrr     bool
	rowSwap  int // swap period; 0 disables
}

// mitigationsSpec runs ρHammer and the baseline against each §6 defense.
func mitigationsSpec(cfg Config) campaign.Spec {
	a := arch.RaptorLake()
	budget := campaign.Budget{
		Locations:  cfg.scaled(6, 3),
		DurationNS: float64(cfg.scaled(150, 100)) * 1e6,
	}
	setups := []struct {
		name    string
		dimm    *arch.DIMM
		ptrr    bool
		rowSwap int
	}{
		{"DDR4 TRR only", DefaultDIMM(), false, 0},
		{"DDR4 + pTRR (BIOS)", DefaultDIMM(), true, 0},
		{"DDR4 + row swap", DefaultDIMM(), false, 4096},
		{"DDR5 (RFM)", arch.DIMMD1(), false, 0},
	}
	strategies := []struct {
		name string
		cfg  hammer.Config
	}{
		{"baseline", hammer.Baseline()},
		{"rhoHammer", hammer.RecommendedSingleBank(a)},
	}
	var cells []campaign.Cell
	for _, st := range setups {
		for _, strat := range strategies {
			cells = append(cells, campaign.Cell{
				Key:  st.name + "/" + strat.name,
				Arch: a, DIMM: st.dimm, Config: strat.cfg,
				Pattern: pattern.KnownGood(), Budget: budget,
				Aux: mitigationSetup{
					defense: st.name, strategy: strat.name,
					ptrr: st.ptrr, rowSwap: st.rowSwap,
				},
			})
		}
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (MitigationRow, error) {
			setup := c.Aux.(mitigationSetup)
			s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
			if err != nil {
				return MitigationRow{}, err
			}
			s.EnablePTRR(setup.ptrr)
			if setup.rowSwap > 0 {
				s.Dev.EnableRowSwap(uint64(setup.rowSwap))
			}
			res, err := sweep.Run(s, c.Pattern, c.Config, sweep.Options{
				Locations:             c.Budget.Locations,
				DurationPerLocationNS: c.Budget.DurationNS,
				Bank:                  -1,
			})
			if err != nil {
				return MitigationRow{}, err
			}
			events := s.Dev.TRREvents()
			if s.Dev.RFMEvents() > 0 {
				events = s.Dev.RFMEvents()
			}
			if s.Dev.RowSwapEvents() > 0 {
				events = s.Dev.RowSwapEvents()
			}
			return MitigationRow{
				Mitigation: setup.defense, Strategy: setup.strategy,
				Flips: res.TotalFlips, Events: events,
			}, nil
		},
		func(rows []MitigationRow) any { return &MitigationsResult{Rows: rows} })
}

// Render implements Renderer.
func (m *MitigationsResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Mitigations (§6) vs rhoHammer on Raptor Lake\n")
	fmt.Fprintf(w, "%-20s %-10s %8s %12s\n", "Defense", "Strategy", "Flips", "Actions")
	for _, r := range m.Rows {
		fmt.Fprintf(w, "%-20s %-10s %8d %12d\n", r.Mitigation, r.Strategy, r.Flips, r.Events)
	}
}
