package experiments

import (
	"bytes"
	"strings"
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/hammer"
	"rhohammer/internal/pattern"
)

// small is the test-sized configuration; the benchmarks exercise the
// full defaults.
var small = Config{Seed: 42, Scale: 0.4}

// run executes the named registry campaign through Run and returns its
// result as the artifact's concrete type.
func run[T Renderer](t *testing.T, name string, cfg Config) T {
	t.Helper()
	r, err := Run(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := r.(T)
	if !ok {
		t.Fatalf("%s: result is %T", name, r)
	}
	return res
}

func render(t *testing.T, r Renderer) string {
	t.Helper()
	var buf bytes.Buffer
	r.Render(&buf)
	s := buf.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	return s
}

func TestTable1(t *testing.T) {
	res := run[*Table1Result](t, "table1", small)
	if len(res.Archs) != 4 {
		t.Fatalf("%d architectures", len(res.Archs))
	}
	out := render(t, res)
	for _, want := range []string{"Comet Lake", "Raptor Lake", "i9-12900"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	res := run[*Table2Result](t, "table2", small)
	if len(res.DIMMs) != 7 {
		t.Fatalf("%d DIMMs", len(res.DIMMs))
	}
	out := render(t, res)
	for _, want := range []string{"S1", "M1", "W01-2024", "2^17"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig3ThresholdShape(t *testing.T) {
	res := run[*Fig3Result](t, "fig3", small)
	th := res.Threshold
	if !(th.FastMode < th.Threshold && th.Threshold < th.SlowMode) {
		t.Errorf("threshold %v not between modes (%v, %v)", th.Threshold, th.FastMode, th.SlowMode)
	}
	// The SBDR share approximates 1/(#banks-1) per the paper; with 32
	// geographic banks that is a few percent.
	if th.SBDRShare < 0.005 || th.SBDRShare > 0.15 {
		t.Errorf("SBDR share %.3f implausible", th.SBDRShare)
	}
	render(t, res)
}

func TestFig4HeatmapContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("full heatmap")
	}
	res := run[*Fig4Result](t, "fig4", Config{Seed: 42, Scale: 0.3})
	if len(res.Archs) != 2 {
		t.Fatal("want two architectures")
	}
	comet, raptor := res.SlowPairs(0), res.SlowPairs(1)
	// Comet's pure row bits produce large SBDR chunks: many more slow
	// pairs than Raptor's scattered function blocks.
	if len(comet) <= len(raptor) {
		t.Errorf("slow pairs: comet %d should exceed raptor %d (pure-row chunks)",
			len(comet), len(raptor))
	}
	// Every Raptor slow pair must be a same-function pair with a row
	// bit — the Duet criterion.
	truth := res.Matrix[1]
	_ = truth
	render(t, res)
}

func TestTable4AllCorrect(t *testing.T) {
	res := run[*Table4Result](t, "table4", small)
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.Correct {
			t.Errorf("%s %dGiB not recovered correctly", r.Family, r.SizeGiB)
		}
		if r.Seconds <= 0 || r.Seconds > 60 {
			t.Errorf("%s %dGiB: runtime %.1fs out of the Table 5 ballpark", r.Family, r.SizeGiB, r.Seconds)
		}
	}
	render(t, res)
}

func TestTable5ToolMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("tool comparison matrix")
	}
	res := run[*Table5Result](t, "table5", Config{Seed: 42, Scale: 0.5})
	get := func(tool, archName string) Table5Cell {
		for _, c := range res.Cells {
			if c.Tool == tool && c.Arch == archName {
				return c
			}
		}
		t.Fatalf("cell %s/%s missing", tool, archName)
		return Table5Cell{}
	}
	for _, a := range arch.All() {
		// Our method: always correct, seconds-scale.
		ours := get("rhoHammer", a.Name)
		if ours.Correct != ours.Runs {
			t.Errorf("rhoHammer on %s: %d/%d", a.Name, ours.Correct, ours.Runs)
		}
		if ours.MeanSecs > 30 {
			t.Errorf("rhoHammer on %s: %.1fs", a.Name, ours.MeanSecs)
		}
		// DRAMA: no correct result anywhere.
		if c := get("DRAMA", a.Name); c.Correct != 0 {
			t.Errorf("DRAMA on %s: %d correct", a.Name, c.Correct)
		}
	}
	// DRAMDig: works on Comet/Rocket (slowly), fails on Alder/Raptor.
	for _, name := range []string{"Comet Lake", "Rocket Lake"} {
		c := get("DRAMDig", name)
		if c.Correct == 0 {
			t.Errorf("DRAMDig on %s: no correct runs", name)
		} else if c.MeanSecs < 60 {
			t.Errorf("DRAMDig on %s: %.1fs, expected orders slower than ours", name, c.MeanSecs)
		}
	}
	for _, name := range []string{"Alder Lake", "Raptor Lake"} {
		if c := get("DRAMDig", name); c.Correct != 0 {
			t.Errorf("DRAMDig on %s: %d correct", name, c.Correct)
		}
		if c := get("DARE", name); c.Correct != 0 {
			t.Errorf("DARE on %s: %d correct", name, c.Correct)
		}
	}
	// DARE: mostly works on Comet Lake.
	if c := get("DARE", "Comet Lake"); c.Correct == 0 {
		t.Error("DARE on Comet Lake: no correct runs")
	}
	render(t, res)
}

func TestFig6PrefetchFaster(t *testing.T) {
	res := run[*Fig6Result](t, "fig6", small)
	byKey := map[string]float64{}
	for _, c := range res.Cells {
		byKey[c.Arch+"/"+c.Instr] = c.MeanTimeMS
	}
	for _, a := range arch.All() {
		load := byKey[a.Name+"/load"]
		for _, pf := range []string{"prefetcht0", "prefetcht1", "prefetcht2", "prefetchnta"} {
			if byKey[a.Name+"/"+pf] >= load {
				t.Errorf("%s: %s (%.2fms) not faster than load (%.2fms)",
					a.Name, pf, byKey[a.Name+"/"+pf], load)
			}
		}
		// The four hints differ only marginally (Fig. 6).
		t2, nta := byKey[a.Name+"/prefetcht2"], byKey[a.Name+"/prefetchnta"]
		if t2/nta > 1.2 || nta/t2 > 1.2 {
			t.Errorf("%s: prefetch hints diverge too much: %.2f vs %.2f", a.Name, t2, nta)
		}
	}
	render(t, res)
}

func TestFig8Shapes(t *testing.T) {
	res := run[*Fig8Result](t, "fig8", small)
	point := func(style, instr string, banks int) Fig8Point {
		for _, p := range res.Points {
			if p.Style == style && p.Instr == instr && p.Banks == banks {
				return p
			}
		}
		t.Fatalf("missing point %s/%s/%d", style, instr, banks)
		return Fig8Point{}
	}
	// Prefetch miss rate grows with banks (disorder relief).
	if point("C++", "prefetcht2", 1).MissRate >= point("C++", "prefetcht2", 4).MissRate {
		t.Error("C++ prefetch miss rate should rise with banks")
	}
	// The C++ primitive saturates full miss by mid bank counts; AsmJit
	// stays lower at the same width (§4.3).
	cpp8 := point("C++", "prefetcht2", 8).MissRate
	jit8 := point("AsmJit", "prefetcht2", 8).MissRate
	if cpp8 < 0.9 {
		t.Errorf("C++ prefetch at 8 banks miss %.2f, want ~1", cpp8)
	}
	if jit8 >= cpp8 {
		t.Errorf("AsmJit miss %.2f should stay below C++ %.2f at 8 banks", jit8, cpp8)
	}
	// Loads are slower than prefetches at the same configuration.
	if point("C++", "load", 1).TimeMS <= point("C++", "prefetcht2", 1).TimeMS {
		t.Error("load hammering should be slower than prefetch")
	}
	render(t, res)
}

func TestFig10InvertedU(t *testing.T) {
	if testing.Short() {
		t.Skip("NOP sweep")
	}
	res := run[*Fig10Result](t, "fig10", Config{Seed: 42, Scale: 0.5})
	if res.Best.Flips == 0 {
		t.Fatal("no flips at any NOP count")
	}
	first, last := res.Curve[0], res.Curve[len(res.Curve)-1]
	if first.Nops != 0 || first.Flips != 0 {
		t.Errorf("flips at 0 NOPs = %d, want 0", first.Flips)
	}
	if last.Flips > res.Best.Flips/2 {
		t.Errorf("flips at %d NOPs = %d, should fall well below the optimum %d",
			last.Nops, last.Flips, res.Best.Flips)
	}
	if res.Best.Nops <= 100 || res.Best.Nops >= 900 {
		t.Errorf("optimum at %d NOPs, want interior", res.Best.Nops)
	}
	render(t, res)
}

func TestE2EExploits(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end attacks")
	}
	res := run[*E2EResult](t, "e2e", Config{Seed: 42, Scale: 0.5})
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.Success {
			t.Errorf("%s: exploit failed (%d flips, %d exploitable)", r.Arch, r.TotalFlips, r.Exploitable)
		}
		if r.EndToEndSecs <= r.TemplateSecs {
			t.Errorf("%s: massaging time missing", r.Arch)
		}
	}
	render(t, res)
}

func TestScaledConfig(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 42 || c.Scale != 1 {
		t.Errorf("defaults: %+v", c)
	}
	if got := (Config{Scale: 0.1}).withDefaults().scaled(100, 20); got != 20 {
		t.Errorf("scaled floor: %d", got)
	}
	if got := (Config{Scale: 2}).withDefaults().scaled(100, 20); got != 200 {
		t.Errorf("scaled up: %d", got)
	}
}

func TestTunedNopsLadder(t *testing.T) {
	archs := arch.All()
	for i := 1; i < len(archs); i++ {
		if hammer.TunedNops(archs[i]) <= hammer.TunedNops(archs[i-1]) {
			t.Errorf("tuned NOPs should grow with speculation depth: %s", archs[i].Name)
		}
		if hammer.TunedNopsMulti(archs[i]) >= hammer.TunedNops(archs[i]) {
			t.Errorf("%s: multi-bank optimum should be below single-bank", archs[i].Name)
		}
	}
}

// The hardcoded tuned NOP constants must stay within the plateau the
// actual tuning phase finds.
func TestTunedNopsNearOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning verification")
	}
	a := arch.RaptorLake()
	s := newSession(a, DefaultDIMM(), 42)
	base := hammer.RecommendedSingleBank(a)
	base.Barrier = 0
	base.Nops = 0
	tune, err := s.TuneNops(pattern.KnownGood(), base, 600, 50, 120e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The constant must land inside the positive range of the curve.
	lo, hi := -1, -1
	for _, p := range tune.Curve {
		if p.Flips > 0 {
			if lo < 0 {
				lo = p.Nops
			}
			hi = p.Nops
		}
	}
	if lo < 0 {
		t.Fatal("curve has no positive range")
	}
	if n := hammer.TunedNops(a); n < lo || n > hi {
		t.Errorf("hammer.TunedNops(%s)=%d outside positive range [%d,%d]", a.Name, n, lo, hi)
	}
}
