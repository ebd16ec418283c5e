package experiments

import (
	"context"
	"fmt"

	"rhohammer/internal/campaign"
	"rhohammer/internal/hammer"
	"rhohammer/internal/sweep"
)

// Registry maps every paper table and figure to its declarative
// campaign Spec. cmd/experiments drives it for -list/-only and
// selection; the exported Table*/Fig* functions run through the same
// entries, so there is exactly one execution path per artifact.
var Registry = campaign.NewRegistry()

func init() {
	// Registration order is rendering order for `experiments all`:
	// cheap inventories first, then measurements, then the heavyweight
	// hammering campaigns, matching the paper's narrative.
	register("table1", campaign.KindTable, "desktop machine setups", table1Spec)
	register("table2", campaign.KindTable, "DDR4 UDIMM inventory", table2Spec)
	register("fig3", campaign.KindFigure, "access-latency density and SBDR threshold", fig3Spec)
	register("fig4", campaign.KindFigure, "duet heatmap of T_SBDR bit pairs", fig4Spec)
	register("table4", campaign.KindTable, "reverse-engineered DRAM address mappings", table4Spec)
	register("table5", campaign.KindTable, "reverse-engineering tool comparison", table5Spec)
	register("fig6", campaign.KindFigure, "attack completion time per hammer instruction", fig6Spec)
	register("fig8", campaign.KindFigure, "miss rate and attack time vs bank count", fig8Spec)
	register("fig9", campaign.KindFigure, "fuzzing flip totals by instruction and banks", fig9Spec)
	register("fig10", campaign.KindFigure, "bit flips vs NOP pseudo-barrier count", fig10Spec)
	register("table3", campaign.KindTable, "barrier strategy comparison", table3Spec)
	register("table6", campaign.KindTable, "2-hour fuzzing matrix", table6Spec)
	register("fig11", campaign.KindFigure, "cumulative flips over sweeping", fig11Spec)
	register("e2e", campaign.KindAux, "end-to-end PTE corruption", e2eSpec)
	register("chain", campaign.KindAux, "attack-chain grid: allocator x hammerer x victim", chainSpec)
	register("mitigations", campaign.KindAux, "§6 mitigations vs rhoHammer", mitigationsSpec)
	register("ablation-cs", campaign.KindAux, "counter-speculation ingredient ablation", ablationCSSpec)
	register("ablation-sampler", campaign.KindAux, "TRR sampler capacity ablation", ablationSamplerSpec)
	register("replay-roundtrip", campaign.KindAux, "session traces replayed through the differential oracle", replayRoundTripSpec)
}

// register wires one spec builder into the Registry, stamping the
// entry's name, kind and base seed onto the built Spec so cell-seed
// derivation is always keyed by the registry name.
func register(name string, kind campaign.Kind, title string, build func(Config) campaign.Spec) {
	Registry.Register(campaign.Entry{
		Name: name, Kind: kind, Title: title,
		Build: func(p campaign.Params) campaign.Spec {
			cfg := Config{Seed: p.Seed, Scale: p.Scale}.withDefaults()
			s := build(cfg)
			s.Name, s.Kind, s.Seed = name, kind, cfg.Seed
			return s
		},
	})
}

// Run executes the named campaign under cfg and returns its rendered
// result — the registry-driven entry point the goldens use
// (cmd/experiments calls RunOutcome for the per-cell stats too).
// Unknown names are the only expected error; execution failures
// indicate a broken profile and surface as errors too.
func Run(name string, cfg Config) (Renderer, error) {
	r, _, err := RunOutcome(name, cfg)
	return r, err
}

// RunOutcome is Run plus the campaign Outcome: per-cell wall times,
// seeds and error stats for the run manifest and the -json envelope.
// The Outcome is non-nil whenever the campaign executed, even when some
// cells failed.
func RunOutcome(name string, cfg Config) (Renderer, *campaign.Outcome, error) {
	e, ok := Registry.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown campaign %q", name)
	}
	out, err := campaign.Run(context.Background(), e.Build(campaign.Params{Seed: cfg.Seed, Scale: cfg.Scale}), cfg.Workers, campaign.RunOpts{})
	if err != nil {
		return nil, out, err
	}
	r, ok := out.Result.(Renderer)
	if !ok {
		return nil, out, fmt.Errorf("experiments: campaign %q result %T does not render", name, out.Result)
	}
	return r, out, nil
}

// runSpec executes a registered campaign under the config's worker
// budget and panics on error — experiment inputs are static profiles,
// so a failure is a programming error (matching the historical
// inline-loop behavior of the Table*/Fig* functions).
func runSpec[T any](cfg Config, name string) T {
	e, ok := Registry.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("experiments: campaign %q not registered", name))
	}
	spec := e.Build(campaign.Params{Seed: cfg.Seed, Scale: cfg.Scale})
	out, err := campaign.Run(context.Background(), spec, cfg.Workers, campaign.RunOpts{})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return out.Result.(T)
}

// gather converts the pool's index-ordered cell results into a typed
// slice.
func gather[T any](results []any) []T {
	out := make([]T, len(results))
	for i, r := range results {
		out[i] = r.(T)
	}
	return out
}

// single wraps a one-cell experiment's Exec so its sole result becomes
// the campaign result.
func single(results []any) any { return results[0] }

// sweepCell returns an Exec for grid cells whose work is "sweep the
// cell's pattern under its config across Budget.Locations": it builds
// the cell's own session from the derived seed, runs the sweep, and
// lets row convert the outcome (with the session still available for
// follow-up probes).
func sweepCell(row func(c campaign.Cell, s *hammer.Session, res sweep.Result) any) func(campaign.Cell, int64) (any, error) {
	return func(c campaign.Cell, seed int64) (any, error) {
		s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
		if err != nil {
			return nil, err
		}
		res, err := sweep.Run(s, c.Pattern, c.Config, sweep.Options{
			Locations:             c.Budget.Locations,
			DurationPerLocationNS: c.Budget.DurationNS,
			Bank:                  -1,
		})
		if err != nil {
			return nil, err
		}
		return row(c, s, res), nil
	}
}

// FuzzCell runs a fuzzing campaign over the cell's config and budget in
// a fresh session: the cell body of table6, fig9 and the serve layer's
// inline grids.
func FuzzCell(c campaign.Cell, seed int64) (hammer.FuzzReport, error) {
	s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
	if err != nil {
		return hammer.FuzzReport{}, err
	}
	return s.Fuzz(c.Config, hammer.FuzzOptions{
		Patterns:   c.Budget.Patterns,
		Locations:  c.Budget.Locations,
		DurationNS: c.Budget.DurationNS,
	})
}
