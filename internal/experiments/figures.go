package experiments

import (
	"fmt"
	"io"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/cpu"
	"rhohammer/internal/hammer"
	"rhohammer/internal/pattern"
	"rhohammer/internal/stats"
	"rhohammer/internal/sweep"
	"rhohammer/internal/timing"
)

// ---------------------------------------------------------------- Fig. 3

// Fig3Result is the latency density distribution with the derived SBDR
// threshold.
type Fig3Result struct {
	Arch      string
	Threshold timing.ThresholdResult
}

// fig3Spec reproduces the threshold-finding density plot: random address
// pairs from the allocated pool, their latency density, the two
// assembly areas, and the threshold between them.
func fig3Spec(cfg Config) campaign.Spec {
	a := arch.CometLake()
	cells := []campaign.Cell{{
		Key: a.Name, Arch: a, DIMM: DefaultDIMM(),
		Budget: campaign.Budget{Probes: cfg.scaled(3000, 800)},
	}}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (*Fig3Result, error) {
			meas, pool := newMeasurerFor(c.Arch, c.DIMM, seed)
			res := meas.FindThreshold(pool.RandomPair, c.Budget.Probes, 8)
			return &Fig3Result{Arch: c.Arch.Name, Threshold: res}, nil
		},
		only)
}

// Render implements Renderer.
func (f *Fig3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 3: access-latency density on %s\n", f.Arch)
	fmt.Fprintf(w, "fast mode %.1f ns | slow (SBDR) mode %.1f ns | threshold %.1f ns | SBDR share %.3f\n",
		f.Threshold.FastMode, f.Threshold.SlowMode, f.Threshold.Threshold, f.Threshold.SBDRShare)
	fmt.Fprint(w, f.Threshold.Hist.String())
}

// ---------------------------------------------------------------- Fig. 4

// Fig4Result holds the two duet heatmaps (Comet vs Raptor Lake).
type Fig4Result struct {
	Archs  []string
	Bits   []uint
	Matrix []map[[2]uint]float64 // per arch: (bx, by) -> avg latency ns
	Thres  []float64
}

// Fig4ArchMap is one architecture's heatmap — the per-cell result the
// gather step assembles into a Fig4Result. Fields are exported so the
// distributed fabric's gob codec can carry it over the wire.
type Fig4ArchMap struct {
	Arch   string
	Bits   []uint
	Matrix map[[2]uint]float64
	Thres  float64
}

// fig4Spec measures T_SBDR(M, {bx, by}) for all bit pairs on the
// traditional (Comet Lake) and recent (Raptor Lake) mappings — the
// heatmaps whose contrast motivates the layout-agnostic algorithm.
func fig4Spec(cfg Config) campaign.Spec {
	var cells []campaign.Cell
	for _, a := range []*arch.Arch{arch.CometLake(), arch.RaptorLake()} {
		cells = append(cells, campaign.Cell{
			Key: a.Name, Arch: a, DIMM: DefaultDIMM(),
			Budget: campaign.Budget{Probes: cfg.scaled(10, 4)},
		})
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (Fig4ArchMap, error) {
			meas, pool := newMeasurerFor(c.Arch, c.DIMM, seed)
			thres := meas.FindThreshold(pool.RandomPair, 600, 8)
			maxBit := uint(33)
			var bits []uint
			for b := uint(6); b <= maxBit; b++ {
				bits = append(bits, b)
			}
			m := map[[2]uint]float64{}
			for i := 0; i < len(bits); i++ {
				for j := i + 1; j < len(bits); j++ {
					mask := uint64(1)<<bits[i] | uint64(1)<<bits[j]
					var sum float64
					n := 0
					for k := 0; k < 4; k++ {
						x, y, ok := pool.PairDifferingIn(mask)
						if !ok {
							continue
						}
						sum += meas.TimePair(x, y, c.Budget.Probes)
						n++
					}
					if n > 0 {
						m[[2]uint{bits[i], bits[j]}] = sum / float64(n)
					}
				}
			}
			return Fig4ArchMap{Arch: c.Arch.Name, Bits: bits, Matrix: m, Thres: thres.Threshold}, nil
		},
		func(maps []Fig4ArchMap) any {
			out := &Fig4Result{}
			for _, am := range maps {
				out.Archs = append(out.Archs, am.Arch)
				out.Bits = am.Bits
				out.Matrix = append(out.Matrix, am.Matrix)
				out.Thres = append(out.Thres, am.Thres)
			}
			return out
		})
}

// SlowPairs returns the bit pairs measuring above threshold for arch
// index i — the highlighted blocks of the heatmap.
func (f *Fig4Result) SlowPairs(i int) [][2]uint {
	var out [][2]uint
	for k, v := range f.Matrix[i] {
		if v > f.Thres[i] {
			out = append(out, k)
		}
	}
	return out
}

// Render implements Renderer.
func (f *Fig4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 4: duet heatmap T_SBDR(bx,by); '#' marks SBDR (slow) pairs\n")
	for ai, name := range f.Archs {
		fmt.Fprintf(w, "--- %s (threshold %.0f ns)\n    ", name, f.Thres[ai])
		for _, b := range f.Bits {
			fmt.Fprintf(w, "%2d ", b%100)
		}
		fmt.Fprintln(w)
		for i, by := range f.Bits {
			fmt.Fprintf(w, "%2d  ", by)
			for j, bx := range f.Bits {
				switch {
				case j >= i:
					fmt.Fprint(w, "   ")
				case f.Matrix[ai][[2]uint{bx, by}] > f.Thres[ai]:
					fmt.Fprint(w, " # ")
				default:
					fmt.Fprint(w, " . ")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// ---------------------------------------------------------------- Fig. 6

// Fig6Cell is the mean attack time for one instruction on one arch.
type Fig6Cell struct {
	Arch       string
	Instr      string
	MeanTimeMS float64
}

// Fig6Result compares hammering-instruction attack times.
type Fig6Result struct{ Cells []Fig6Cell }

// fig6Spec executes random patterns to a fixed access budget with each
// hammer instruction (load and the four prefetch hints) and reports the
// average completion time — prefetching is consistently ~2x faster.
func fig6Spec(cfg Config) campaign.Spec {
	budget := campaign.Budget{
		Patterns:    cfg.scaled(10, 4),
		Activations: cfg.scaled(500_000, 100_000),
	}
	var cells []campaign.Cell
	for _, a := range arch.All() {
		for _, in := range instrNames {
			cells = append(cells, campaign.Cell{
				Key:  a.Name + "/" + in.Name,
				Arch: a, DIMM: DefaultDIMM(),
				Config: hammer.Config{Instr: in.Instr, Banks: 1},
				Budget: budget, Aux: in.Name,
			})
		}
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, _ int64) (Fig6Cell, error) {
			// Controlled comparison: every instruction on an arch must
			// time the SAME session and pattern stream (the paper varies
			// only the hammer instruction), so the streams derive from
			// the arch alone, not the per-cell seed.
			seed := stats.SplitSeed(cfg.Seed, "fig6/"+c.Arch.Name)
			s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
			if err != nil {
				return Fig6Cell{}, err
			}
			fz := pattern.NewFuzzer(pattern.FuzzParams{}, stats.NewRand(stats.SplitSeed(seed, "fuzzer")))
			var total float64
			for p := 0; p < c.Budget.Patterns; p++ {
				pat := fz.Next()
				res, err := s.HammerPattern(pat, c.Config, p%s.Map.Banks(), uint64(600+p*128), c.Budget.Activations)
				if err != nil {
					return Fig6Cell{}, err
				}
				total += res.TimeNS
			}
			return Fig6Cell{
				Arch: c.Arch.Name, Instr: c.Aux.(string),
				MeanTimeMS: total / float64(c.Budget.Patterns) / 1e6,
			}, nil
		},
		func(cells []Fig6Cell) any { return &Fig6Result{Cells: cells} })
}

// Render implements Renderer.
func (f *Fig6Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 6: average attack completion time per pattern (ms)\n")
	fmt.Fprintf(w, "%-12s %-12s %10s\n", "Arch", "Instr", "Time(ms)")
	for _, c := range f.Cells {
		fmt.Fprintf(w, "%-12s %-12s %10.2f\n", c.Arch, c.Instr, c.MeanTimeMS)
	}
}

// ---------------------------------------------------------------- Fig. 8

// Fig8Point is one (primitive style, instruction, banks) measurement.
type Fig8Point struct {
	Style    string
	Instr    string
	Banks    int
	MissRate float64
	TimeMS   float64
}

// Fig8Result holds the multi-bank miss-rate and time curves.
type Fig8Result struct {
	Arch   string
	Points []Fig8Point
}

// fig8Spec measures cache miss rate and attack time for the C++/AsmJit
// primitives with load/prefetch hammering across 1-8 banks on Comet
// Lake.
func fig8Spec(cfg Config) campaign.Spec {
	a := arch.CometLake()
	budget := campaign.Budget{Activations: cfg.scaled(400_000, 100_000)}
	var cells []campaign.Cell
	for _, style := range []cpu.Style{cpu.StyleCPP, cpu.StyleAsmJit} {
		for _, in := range []hammer.Instr{hammer.InstrLoad, hammer.InstrPrefetchT2} {
			for banks := 1; banks <= 8; banks++ {
				cells = append(cells, campaign.Cell{
					Key:  fmt.Sprintf("%s/%s/%d", style, in, banks),
					Arch: a, DIMM: DefaultDIMM(),
					Config:  hammer.Config{Instr: in, Style: style, Banks: banks},
					Pattern: pattern.KnownGood(), Budget: budget,
				})
			}
		}
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (Fig8Point, error) {
			s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
			if err != nil {
				return Fig8Point{}, err
			}
			res, err := s.HammerPattern(c.Pattern, c.Config, 0, 700, c.Budget.Activations)
			if err != nil {
				return Fig8Point{}, err
			}
			return Fig8Point{
				Style: c.Config.Style.String(), Instr: c.Config.Instr.String(), Banks: c.Config.Banks,
				MissRate: res.MissRate(), TimeMS: res.TimeNS / 1e6,
			}, nil
		},
		func(points []Fig8Point) any { return &Fig8Result{Arch: a.Name, Points: points} })
}

// Render implements Renderer.
func (f *Fig8Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 8: miss rate and attack time vs banks on %s\n", f.Arch)
	fmt.Fprintf(w, "%-8s %-12s %6s %10s %10s\n", "Style", "Instr", "Banks", "MissRate", "Time(ms)")
	for _, p := range f.Points {
		fmt.Fprintf(w, "%-8s %-12s %6d %10.2f %10.2f\n", p.Style, p.Instr, p.Banks, p.MissRate, p.TimeMS)
	}
}

// ---------------------------------------------------------------- Fig. 9

// Fig9Cell is one fuzzing total for (arch, instr, banks).
type Fig9Cell struct {
	Arch  string
	Instr string
	Banks int
	Flips int
}

// Fig9Result holds the fuzzing effectiveness across bank counts.
type Fig9Result struct{ Cells []Fig9Cell }

// fig9Spec fuzzes with load- and prefetch-based hammering across 1-4 banks
// on all four architectures — without counter-speculation, matching the
// §4.3 setting where Alder/Raptor Lake still yield nothing.
func fig9Spec(cfg Config) campaign.Spec {
	budget := campaign.Budget{
		Patterns:   cfg.scaled(10, 5),
		Locations:  1,
		DurationNS: float64(cfg.scaled(150, 100)) * 1e6,
	}
	var cells []campaign.Cell
	for _, a := range arch.All() {
		for _, in := range []hammer.Instr{hammer.InstrLoad, hammer.InstrPrefetchT2} {
			for banks := 1; banks <= 4; banks++ {
				cells = append(cells, campaign.Cell{
					Key:  fmt.Sprintf("%s/%s/%d", a.Name, in, banks),
					Arch: a, DIMM: DefaultDIMM(),
					Config: hammer.Config{Instr: in, Banks: banks},
					Budget: budget,
				})
			}
		}
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (Fig9Cell, error) {
			rep, err := FuzzCell(c, seed)
			if err != nil {
				return Fig9Cell{}, err
			}
			return Fig9Cell{
				Arch: c.Arch.Name, Instr: c.Config.Instr.String(),
				Banks: c.Config.Banks, Flips: rep.TotalFlips,
			}, nil
		},
		func(cells []Fig9Cell) any { return &Fig9Result{Cells: cells} })
}

// Render implements Renderer.
func (f *Fig9Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 9: fuzzing flip totals by instruction and bank count\n")
	fmt.Fprintf(w, "%-12s %-12s %6s %8s\n", "Arch", "Instr", "Banks", "Flips")
	for _, c := range f.Cells {
		fmt.Fprintf(w, "%-12s %-12s %6d %8d\n", c.Arch, c.Instr, c.Banks, c.Flips)
	}
}

// --------------------------------------------------------------- Fig. 10

// Fig10Result is the NOP-count sweep on Raptor Lake.
type Fig10Result struct {
	Arch  string
	Curve []hammer.TunePoint
	Best  hammer.TunePoint
}

// fig10Spec sweeps the pseudo-barrier NOP count over [0, 1000] with the
// best pattern on Raptor Lake: zero flips at both extremes, an optimum
// in the interior.
func fig10Spec(cfg Config) campaign.Spec {
	a := arch.RaptorLake()
	cells := []campaign.Cell{{
		Key: a.Name, Arch: a, DIMM: DefaultDIMM(),
		Config:  hammer.Config{Instr: hammer.InstrPrefetchT2, Banks: 1, Obfuscate: true},
		Pattern: pattern.KnownGood(),
		Budget: campaign.Budget{
			DurationNS: float64(cfg.scaled(150, 100)) * 1e6,
			Runs:       cfg.scaled(2, 1),
		},
	}}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (*Fig10Result, error) {
			s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
			if err != nil {
				return nil, err
			}
			tune, err := s.TuneNops(c.Pattern, c.Config, 1000, 50, c.Budget.DurationNS, c.Budget.Runs)
			if err != nil {
				return nil, err
			}
			return &Fig10Result{
				Arch:  c.Arch.Name,
				Curve: tune.Curve,
				Best:  hammer.TunePoint{Nops: tune.BestNops, Flips: tune.BestFlips},
			}, nil
		},
		only)
}

// Render implements Renderer.
func (f *Fig10Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 10: bit flips vs NOP count on %s (best: %d NOPs -> %d flips)\n",
		f.Arch, f.Best.Nops, f.Best.Flips)
	maxF := 1
	for _, p := range f.Curve {
		if p.Flips > maxF {
			maxF = p.Flips
		}
	}
	for _, p := range f.Curve {
		bar := p.Flips * 50 / maxF
		fmt.Fprintf(w, "%5d | %s %d\n", p.Nops, repeat('#', bar), p.Flips)
	}
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}

// --------------------------------------------------------------- Fig. 11

// Fig11Series is one architecture's cumulative sweep series.
type Fig11Series struct {
	Arch     string
	Strategy string
	Points   []sweep.Point
	Total    int
	PerMin   float64
}

// Fig11Result holds the sweeping flip-rate comparison.
type Fig11Result struct{ Series []Fig11Series }

// fig11Spec sweeps the best pattern over a large set of non-repeating
// locations on each architecture for both ρHammer and the baseline,
// producing the cumulative flip series and the per-minute rates the
// paper headlines (112x / 47x on Comet/Rocket; baseline zero on
// Alder/Raptor).
func fig11Spec(cfg Config) campaign.Spec {
	budget := campaign.Budget{
		Locations:  cfg.scaled(24, 8),
		DurationNS: float64(cfg.scaled(150, 100)) * 1e6,
	}
	var cells []campaign.Cell
	for _, a := range arch.All() {
		for _, st := range []struct {
			label string
			hcfg  hammer.Config
		}{
			{"baseline", hammer.Baseline()},
			{"rhoHammer", hammer.Recommended(a)},
		} {
			cells = append(cells, campaign.Cell{
				Key:  a.Name + "/" + st.label,
				Arch: a, DIMM: DefaultDIMM(), Config: st.hcfg,
				Pattern: pattern.KnownGood(), Budget: budget, Aux: st.label,
			})
		}
	}
	return campaign.Grid(cells,
		sweepCell(func(c campaign.Cell, _ *hammer.Session, res sweep.Result) Fig11Series {
			return Fig11Series{
				Arch: c.Arch.Name, Strategy: c.Aux.(string),
				Points: res.Series, Total: res.TotalFlips, PerMin: res.FlipsPerMinute(),
			}
		}),
		func(series []Fig11Series) any { return &Fig11Result{Series: series} })
}

// Render implements Renderer.
func (f *Fig11Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 11: cumulative flips over sweeping\n")
	fmt.Fprintf(w, "%-12s %-10s %8s %12s\n", "Arch", "Strategy", "Flips", "Flips/min")
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-12s %-10s %8d %12.0f\n", s.Arch, s.Strategy, s.Total, s.PerMin)
	}
}
