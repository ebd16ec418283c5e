package experiments

import (
	"errors"
	"fmt"
	"io"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/chain"
	"rhohammer/internal/hammer"
)

// ChainRow is one allocator/hammerer/victim combination's end-to-end
// outcome.
type ChainRow struct {
	Cell      string
	Allocator string
	Hammerer  string
	Victim    string
	Regions   int
	Skipped   int
	Flips     int
	Targets   int
	Attempts  int
	Secs      float64
	Success   bool
	// Note names the failed stage on failure (empty on success).
	Note string
}

// ChainResult is the full attack-chain grid: every composition of the
// chain layer's allocators, hammerers and victims run end to end on one
// platform.
type ChainResult struct{ Rows []ChainRow }

// chainSpec runs the 2x2x2 allocator x hammerer x victim grid.
func chainSpec(cfg Config) campaign.Spec {
	a := arch.RaptorLake()
	var cells []campaign.Cell
	for _, al := range chain.Allocators() {
		for _, h := range chain.Hammerers() {
			for _, v := range chain.Victims() {
				p := chain.Plan{Allocator: al, Hammerer: h, Victim: v}
				cells = append(cells, campaign.Cell{
					Key: p.Key(), Arch: a, DIMM: DefaultDIMM(),
					// The floors keep tiny scales genuinely tiny (the race-
					// detector determinism run uses scale 0.1); at the golden
					// scale 0.5 these resolve to 6 regions x 100ms.
					Budget: campaign.Budget{
						Locations:  cfg.scaled(12, 2),
						DurationNS: float64(cfg.scaled(200, 20)) * 1e6,
					},
					Aux: p,
				})
			}
		}
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (ChainRow, error) {
			s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
			if err != nil {
				return ChainRow{}, err
			}
			p := c.Aux.(chain.Plan)
			p.Regions = c.Budget.Locations
			p.DurationPerLocationNS = c.Budget.DurationNS
			// A failed chain is a reportable row, not a cell error — the
			// grid's point is which compositions survive which stage.
			res, rerr := p.Run(s)
			row := ChainRow{
				Cell:      p.Key(),
				Allocator: p.Allocator,
				Hammerer:  p.Hammerer,
				Victim:    p.Victim,
				Regions:   res.Regions,
				Skipped:   res.Skipped,
				Flips:     res.TotalFlips,
				Targets:   len(res.Targets),
				Attempts:  res.Attempts,
				Secs:      res.Phases.TotalNS() / 1e9,
				Success:   res.Success,
			}
			if rerr != nil {
				row.Note = chainNote(rerr)
			}
			return row, nil
		},
		func(rows []ChainRow) any { return &ChainResult{Rows: rows} })
}

// chainNote maps a chain's typed stage errors onto short table notes.
func chainNote(err error) string {
	var (
		allocErr  *chain.AllocError
		tmplErr   *chain.TemplateError
		noTargets *chain.NoTargetsError
		exhausted *chain.ExhaustedError
		retrigger *chain.RetriggerError
	)
	switch {
	case errors.As(err, &allocErr):
		return "allocation failed"
	case errors.As(err, &tmplErr):
		return "templating failed"
	case errors.As(err, &noTargets):
		return "no usable flips"
	case errors.As(err, &exhausted):
		return "all targets failed"
	case errors.As(err, &retrigger):
		return "re-trigger failed"
	}
	return err.Error()
}

// Render implements Renderer.
func (e *ChainResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Attack-chain grid: allocator x hammerer x victim\n")
	fmt.Fprintf(w, "%-14s %7s %7s %7s %7s %8s %8s %s\n",
		"Chain", "Regions", "Flips", "Targets", "Tries", "Time(s)", "Result", "Note")
	for _, r := range e.Rows {
		result := "FAILED"
		if r.Success {
			result = "OK"
		}
		fmt.Fprintf(w, "%-14s %7d %7d %7d %7d %8.1f %8s %s\n",
			r.Cell, r.Regions, r.Flips, r.Targets, r.Attempts, r.Secs, result, r.Note)
	}
}
