package experiments

import (
	"fmt"
	"io"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/hammer"
	"rhohammer/internal/mapping"
	"rhohammer/internal/mem"
	"rhohammer/internal/pattern"
	"rhohammer/internal/reverse"
	"rhohammer/internal/stats"
	"rhohammer/internal/sweep"
	"rhohammer/internal/timing"
)

// ---------------------------------------------------------------- Table 1

// Table1Result lists the machine setups.
type Table1Result struct{ Archs []*arch.Arch }

// table1Spec reproduces the Table 1 inventory from the architecture
// profiles.
func table1Spec(Config) campaign.Spec {
	return campaign.Grid([]campaign.Cell{{Key: "inventory"}},
		func(campaign.Cell, int64) (*Table1Result, error) {
			return &Table1Result{Archs: arch.All()}, nil
		},
		only)
}

// Render implements Renderer.
func (t *Table1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 1: desktop machine setups\n")
	fmt.Fprintf(w, "%-12s %-12s %s\n", "Arch", "CPU", "Max Mem Freq")
	for _, a := range t.Archs {
		fmt.Fprintf(w, "%-12s %-12s %d\n", a.Name, a.CPU, a.MemFreqMHz)
	}
}

// ---------------------------------------------------------------- Table 2

// Table2Result lists the DIMMs.
type Table2Result struct{ DIMMs []*arch.DIMM }

// table2Spec reproduces the Table 2 inventory from the DIMM profiles.
func table2Spec(Config) campaign.Spec {
	return campaign.Grid([]campaign.Cell{{Key: "inventory"}},
		func(campaign.Cell, int64) (*Table2Result, error) {
			return &Table2Result{DIMMs: arch.AllDIMMs()}, nil
		},
		only)
}

// Render implements Renderer.
func (t *Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2: DDR4 UDIMMs\n")
	fmt.Fprintf(w, "%-4s %-10s %-6s %-6s %s\n", "ID", "Date", "Freq", "Size", "Geometry (RK, BK, R)")
	for _, d := range t.DIMMs {
		fmt.Fprintf(w, "%-4s %-10s %-6d %-6d (%d, %d, 2^%d)\n",
			d.ID, d.ProductionDate, d.FreqMHz, d.SizeGiB, d.Ranks, d.BanksPerRank, log2(d.RowsPerBank))
	}
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// ---------------------------------------------------------------- Table 3

// Table3Row is one barrier strategy's outcome on one architecture.
type Table3Row struct {
	Arch    string
	Barrier string
	Flips   int
	TimeMS  float64
}

// Table3Result compares barrier strategies on Alder and Raptor Lake.
type Table3Result struct{ Rows []Table3Row }

// table3Spec sweeps the best pattern under the six barrier strategies of
// the paper: no barrier, CPUID, MFENCE, LFENCE with loads, LFENCE with
// prefetches, and ρHammer's NOP pseudo-barrier — all with control-flow
// obfuscation enabled, as in the paper.
func table3Spec(cfg Config) campaign.Spec {
	budget := campaign.Budget{
		Locations:  cfg.scaled(8, 3),
		DurationNS: float64(cfg.scaled(150, 100)) * 1e6,
	}
	var cells []campaign.Cell
	for _, a := range []*arch.Arch{arch.AlderLake(), arch.RaptorLake()} {
		for _, b := range []struct {
			label string
			hcfg  hammer.Config
		}{
			{"None", hammer.Config{Instr: hammer.InstrPrefetchT2, Barrier: hammer.BarrierNone, Banks: 1, Obfuscate: true}},
			{"CPUID", hammer.Config{Instr: hammer.InstrPrefetchT2, Barrier: hammer.BarrierCPUID, Banks: 1, Obfuscate: true}},
			{"MFENCE", hammer.Config{Instr: hammer.InstrPrefetchT2, Barrier: hammer.BarrierMFence, Banks: 1, Obfuscate: true}},
			{"LFENCE (load)", hammer.Config{Instr: hammer.InstrLoad, Barrier: hammer.BarrierLFence, Banks: 1, Obfuscate: true}},
			{"LFENCE (prefetch)", hammer.Config{Instr: hammer.InstrPrefetchT2, Barrier: hammer.BarrierLFence, Banks: 1, Obfuscate: true}},
			{"NOP", hammer.Config{Instr: hammer.InstrPrefetchT2, Barrier: hammer.BarrierNop, Nops: hammer.TunedNops(a), Banks: 1, Obfuscate: true}},
		} {
			cells = append(cells, campaign.Cell{
				Key:  a.Name + "/" + b.label,
				Arch: a, DIMM: DefaultDIMM(), Config: b.hcfg,
				Pattern: pattern.KnownGood(), Budget: budget, Aux: b.label,
			})
		}
	}
	return campaign.Grid(cells,
		sweepCell(func(c campaign.Cell, _ *hammer.Session, res sweep.Result) Table3Row {
			return Table3Row{
				Arch: c.Arch.Name, Barrier: c.Aux.(string),
				Flips: res.TotalFlips, TimeMS: res.TimeNS / 1e6,
			}
		}),
		func(rows []Table3Row) any { return &Table3Result{Rows: rows} })
}

// Render implements Renderer.
func (t *Table3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 3: barrier comparison (flips / time in ms)\n")
	fmt.Fprintf(w, "%-12s %-18s %8s %10s\n", "Arch", "Barrier", "Flips", "Time(ms)")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-12s %-18s %8d %10.1f\n", r.Arch, r.Barrier, r.Flips, r.TimeMS)
	}
}

// ---------------------------------------------------------------- Table 4

// Table4Row is one recovered mapping.
type Table4Row struct {
	Family    string
	SizeGiB   int
	Recovered *mapping.Mapping
	Truth     *mapping.Mapping
	Correct   bool
	Seconds   float64
}

// Table4Result reports the recovered DRAM address mappings.
type Table4Result struct{ Rows []Table4Row }

// table4Spec runs Algorithm 1 against every platform family and DIMM
// geometry of the paper's Table 4 and verifies the results against the
// ground-truth mappings.
func table4Spec(Config) campaign.Spec {
	var cells []campaign.Cell
	for _, c := range []struct {
		a    *arch.Arch
		size int
	}{
		{arch.CometLake(), 8}, {arch.CometLake(), 16}, {arch.RocketLake(), 32},
		{arch.AlderLake(), 8}, {arch.RaptorLake(), 16}, {arch.RaptorLake(), 32},
	} {
		cells = append(cells, campaign.Cell{
			Key:  fmt.Sprintf("%s/%dGiB", c.a.Name, c.size),
			Arch: c.a, DIMM: dimmWithSize(c.size),
		})
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (Table4Row, error) {
			truth, _ := mapping.ForPlatform(c.Arch.MappingFamily, c.DIMM.SizeGiB)
			meas, pool := newMeasurerFor(c.Arch, c.DIMM, seed)
			res := reverse.Recover(meas, pool, reverse.Options{})
			row := Table4Row{
				Family: c.Arch.MappingFamily, SizeGiB: c.DIMM.SizeGiB,
				Truth: truth, Seconds: res.Seconds(),
			}
			if res.OK() {
				row.Recovered = res.Mapping
				row.Correct = res.Mapping.Equal(truth)
			}
			return row, nil
		},
		func(rows []Table4Row) any { return &Table4Result{Rows: rows} })
}

// dimmWithSize returns a DIMM profile of the requested capacity.
func dimmWithSize(sizeGiB int) *arch.DIMM {
	for _, d := range arch.AllDIMMs() {
		if d.SizeGiB == sizeGiB {
			return d
		}
	}
	panic(fmt.Sprintf("experiments: no DIMM of %d GiB", sizeGiB))
}

// Render implements Renderer.
func (t *Table4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 4: reverse-engineered DRAM address mappings\n")
	for _, r := range t.Rows {
		status := "FAILED"
		if r.Recovered != nil {
			if r.Correct {
				status = "correct"
			} else {
				status = "INCORRECT"
			}
		}
		fmt.Fprintf(w, "%-14s %2d GiB [%s, %.1fs]\n", r.Family, r.SizeGiB, status, r.Seconds)
		if r.Recovered != nil {
			fmt.Fprintf(w, "    %s\n", r.Recovered)
		}
	}
}

// ---------------------------------------------------------------- Table 5

// Table5Cell is one (tool, architecture) outcome.
type Table5Cell struct {
	Tool     string
	Arch     string
	Runs     int
	Correct  int
	MeanSecs float64 // over successful runs; 0 when none
}

// Table5Result compares reverse-engineering tools across architectures.
type Table5Result struct{ Cells []Table5Cell }

// reverseTool maps a Table 5 tool name to its recovery entry point.
func reverseTool(name string) func(*timing.Measurer, *mem.Pool) reverse.Result {
	switch name {
	case "DRAMA":
		return func(m *timing.Measurer, p *mem.Pool) reverse.Result {
			return reverse.RecoverDRAMA(m, p, reverse.Options{})
		}
	case "DRAMDig":
		return func(m *timing.Measurer, p *mem.Pool) reverse.Result {
			return reverse.RecoverDRAMDig(m, p, reverse.Options{})
		}
	case "DARE":
		return func(m *timing.Measurer, p *mem.Pool) reverse.Result {
			return reverse.RecoverDARE(m, p, reverse.Options{})
		}
	case "rhoHammer":
		return func(m *timing.Measurer, p *mem.Pool) reverse.Result { return reverse.Recover(m, p, reverse.Options{}) }
	default:
		panic(fmt.Sprintf("experiments: unknown reverse-engineering tool %q", name))
	}
}

// table5Spec runs each tool `runs` times per architecture (the paper uses
// 50 independent runs) and reports accuracy and mean runtime.
func table5Spec(cfg Config) campaign.Spec {
	budget := campaign.Budget{Runs: cfg.scaled(6, 3)}
	var cells []campaign.Cell
	for _, tool := range []string{"DRAMA", "DRAMDig", "DARE", "rhoHammer"} {
		for _, a := range arch.All() {
			cells = append(cells, campaign.Cell{
				Key:  tool + "/" + a.Name,
				Arch: a, DIMM: DefaultDIMM(), Budget: budget, Aux: tool,
			})
		}
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (Table5Cell, error) {
			tool := c.Aux.(string)
			run := reverseTool(tool)
			truth, _ := mapping.ForPlatform(c.Arch.MappingFamily, c.DIMM.SizeGiB)
			cell := Table5Cell{Tool: tool, Arch: c.Arch.Name, Runs: c.Budget.Runs}
			var secs float64
			for r := 0; r < c.Budget.Runs; r++ {
				meas, pool := newMeasurerFor(c.Arch, c.DIMM, stats.SplitSeed(seed, fmt.Sprintf("run/%d", r)))
				res := run(meas, pool)
				if res.OK() && sameFuncs(res.Mapping, truth) {
					cell.Correct++
					secs += res.Seconds()
				}
			}
			if cell.Correct > 0 {
				cell.MeanSecs = secs / float64(cell.Correct)
			}
			return cell, nil
		},
		func(cells []Table5Cell) any { return &Table5Result{Cells: cells} })
}

// sameFuncs compares only the bank-function sets: DRAMA and DARE do not
// recover row ranges exactly, and the paper scores them on functions.
func sameFuncs(got, want *mapping.Mapping) bool {
	g, t := got.Canonical(), want.Canonical()
	if len(g.Funcs) != len(t.Funcs) {
		return false
	}
	for i := range g.Funcs {
		if g.Funcs[i] != t.Funcs[i] {
			return false
		}
	}
	return true
}

// Render implements Renderer.
func (t *Table5Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 5: reverse-engineering tool comparison\n")
	fmt.Fprintf(w, "%-10s %-12s %10s %10s\n", "Tool", "Arch", "Accuracy", "Time(s)")
	for _, c := range t.Cells {
		timeStr := "-"
		if c.Correct > 0 {
			timeStr = fmt.Sprintf("%.1f", c.MeanSecs)
			if c.Correct < c.Runs {
				timeStr += "*" // partially non-deterministic
			}
		}
		fmt.Fprintf(w, "%-10s %-12s %7d/%-2d %10s\n", c.Tool, c.Arch, c.Correct, c.Runs, timeStr)
	}
	fmt.Fprintf(w, "(*) partially non-deterministic, (-) no correct result\n")
}

// ---------------------------------------------------------------- Table 6

// Table6Cell is one (DIMM, arch, strategy) fuzzing outcome.
type Table6Cell struct {
	Arch     string
	DIMM     string
	Strategy string // "BL-S", "BL-M", "rho-S", "rho-M"
	Total    int
	Best     int
}

// Table6Result is the 2-hour fuzzing matrix.
type Table6Result struct{ Cells []Table6Cell }

// strategies enumerates the Table 6 columns for one architecture.
func strategies(a *arch.Arch) []struct {
	label string
	hcfg  hammer.Config
} {
	return []struct {
		label string
		hcfg  hammer.Config
	}{
		{"BL-S", hammer.Baseline()},
		{"BL-M", baselineM(a)},
		{"rho-S", hammer.RecommendedSingleBank(a)},
		{"rho-M", hammer.Recommended(a)},
	}
}

// table6Spec runs the fuzzing campaign for every architecture, DIMM and
// strategy combination. The paper's 2-hour budget is represented by a
// scaled number of candidate patterns.
func table6Spec(cfg Config) campaign.Spec {
	budget := campaign.Budget{
		Patterns:   cfg.scaled(10, 5),
		Locations:  1,
		DurationNS: float64(cfg.scaled(150, 100)) * 1e6,
	}
	var cells []campaign.Cell
	for _, a := range arch.All() {
		for _, d := range arch.AllDIMMs() {
			for _, st := range strategies(a) {
				cells = append(cells, campaign.Cell{
					Key:  a.Name + "/" + d.ID + "/" + st.label,
					Arch: a, DIMM: d, Config: st.hcfg, Budget: budget, Aux: st.label,
				})
			}
		}
	}
	return campaign.Grid(cells,
		func(c campaign.Cell, seed int64) (Table6Cell, error) {
			rep, err := FuzzCell(c, seed)
			if err != nil {
				return Table6Cell{}, err
			}
			return Table6Cell{
				Arch: c.Arch.Name, DIMM: c.DIMM.ID, Strategy: c.Aux.(string),
				Total: rep.TotalFlips, Best: rep.Best.Flips,
			}, nil
		},
		func(cells []Table6Cell) any { return &Table6Result{Cells: cells} })
}

// Render implements Renderer.
func (t *Table6Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 6: fuzzing bit-flip counts (total, best pattern)\n")
	fmt.Fprintf(w, "%-12s %-5s %8s %8s %8s %8s\n", "Arch", "DIMM", "BL-S", "BL-M", "rho-S", "rho-M")
	type key struct{ arch, dimm string }
	grid := map[key]map[string]Table6Cell{}
	var order []key
	for _, c := range t.Cells {
		k := key{c.Arch, c.DIMM}
		if grid[k] == nil {
			grid[k] = map[string]Table6Cell{}
			order = append(order, k)
		}
		grid[k][c.Strategy] = c
	}
	for _, k := range order {
		row := grid[k]
		fmt.Fprintf(w, "%-12s %-5s", k.arch, k.dimm)
		for _, st := range []string{"BL-S", "BL-M", "rho-S", "rho-M"} {
			c := row[st]
			fmt.Fprintf(w, " %4d,%-4d", c.Total, c.Best)
		}
		fmt.Fprintln(w)
	}
}
