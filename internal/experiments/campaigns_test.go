package experiments

import "testing"

// The headline campaign results (Figs. 9, 11 and Table 6) take minutes
// at full scale; these tests run them at reduced scale and assert the
// qualitative claims the paper makes.

func TestFig9BankScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing campaign")
	}
	res := run[*Fig9Result](t, "fig9", Config{Seed: 42, Scale: 0.6})
	get := func(archName, instr string, banks int) int {
		for _, c := range res.Cells {
			if c.Arch == archName && c.Instr == instr && c.Banks == banks {
				return c.Flips
			}
		}
		t.Fatalf("missing cell %s/%s/%d", archName, instr, banks)
		return 0
	}
	// Comet Lake: prefetch effectiveness grows with banks and beats
	// loads at multi-bank widths.
	pfTotal, ldTotal := 0, 0
	for banks := 1; banks <= 4; banks++ {
		pfTotal += get("Comet Lake", "prefetcht2", banks)
		ldTotal += get("Comet Lake", "load", banks)
	}
	if pfTotal <= ldTotal {
		t.Errorf("Comet Lake: prefetch total %d should exceed load total %d", pfTotal, ldTotal)
	}
	if get("Comet Lake", "prefetcht2", 3) <= get("Comet Lake", "prefetcht2", 1) {
		t.Error("Comet Lake: multi-bank prefetch should beat single-bank")
	}
	// Raptor Lake without counter-speculation: loads produce nothing;
	// prefetching alone stays (near) dead — the §4.3 conclusion that
	// motivates §4.4.
	for banks := 1; banks <= 4; banks++ {
		if f := get("Raptor Lake", "load", banks); f != 0 {
			t.Errorf("Raptor Lake load at %d banks: %d flips", banks, f)
		}
	}
	raptorPF := 0
	for banks := 1; banks <= 4; banks++ {
		raptorPF += get("Raptor Lake", "prefetcht2", banks)
	}
	cometPF := pfTotal
	if raptorPF*2 > cometPF {
		t.Errorf("Raptor Lake prefetch w/o counter-spec (%d) should be far below Comet Lake (%d)",
			raptorPF, cometPF)
	}
}

func TestTable6Landscape(t *testing.T) {
	if testing.Short() {
		t.Skip("full fuzzing matrix")
	}
	res := run[*Table6Result](t, "table6", Config{Seed: 42, Scale: 0.6})
	cell := func(archName, dimm, strategy string) Table6Cell {
		for _, c := range res.Cells {
			if c.Arch == archName && c.DIMM == dimm && c.Strategy == strategy {
				return c
			}
		}
		t.Fatalf("missing cell %s/%s/%s", archName, dimm, strategy)
		return Table6Cell{}
	}

	// M1 never flips under any strategy on any platform.
	for _, a := range []string{"Comet Lake", "Rocket Lake", "Alder Lake", "Raptor Lake"} {
		for _, st := range []string{"BL-S", "BL-M", "rho-S", "rho-M"} {
			if c := cell(a, "M1", st); c.Total != 0 {
				t.Errorf("M1 flipped: %s/%s = %d", a, st, c.Total)
			}
		}
	}
	// Baselines on Alder/Raptor Lake: zero everywhere.
	for _, a := range []string{"Alder Lake", "Raptor Lake"} {
		for _, d := range []string{"S1", "S2", "S3", "S4", "S5", "H1"} {
			if c := cell(a, d, "BL-S"); c.Total != 0 {
				t.Errorf("%s/%s BL-S flipped %d", a, d, c.Total)
			}
		}
	}
	// ρHammer revives the vulnerable S-family modules on Raptor Lake.
	revived := 0
	for _, d := range []string{"S1", "S2", "S3", "S4"} {
		if cell("Raptor Lake", d, "rho-S").Total > 0 || cell("Raptor Lake", d, "rho-M").Total > 0 {
			revived++
		}
	}
	if revived < 3 {
		t.Errorf("rhoHammer revived only %d/4 vulnerable DIMMs on Raptor Lake", revived)
	}
	// rho-M beats rho-S in aggregate on every platform (the paper's
	// "ρ-M always outperforms ρ-S" observation, at campaign level).
	for _, a := range []string{"Comet Lake", "Rocket Lake", "Alder Lake", "Raptor Lake"} {
		sTot, mTot := 0, 0
		for _, d := range []string{"S1", "S2", "S3", "S4"} {
			sTot += cell(a, d, "rho-S").Total
			mTot += cell(a, d, "rho-M").Total
		}
		if mTot < sTot {
			t.Errorf("%s: rho-M total %d below rho-S total %d", a, mTot, sTot)
		}
	}
	// The DIMM vulnerability ordering on Comet Lake: S4+S3 above S1;
	// S5/H1 far below the S-family's vulnerable members.
	vulnerable := cell("Comet Lake", "S4", "rho-M").Total + cell("Comet Lake", "S3", "rho-M").Total
	weak := cell("Comet Lake", "S5", "rho-M").Total + cell("Comet Lake", "H1", "rho-M").Total
	if vulnerable <= weak {
		t.Errorf("vulnerability ordering broken: S3+S4=%d vs S5+H1=%d", vulnerable, weak)
	}
	// Best-pattern counts never exceed totals.
	for _, c := range res.Cells {
		if c.Best > c.Total {
			t.Errorf("%s/%s/%s: best %d > total %d", c.Arch, c.DIMM, c.Strategy, c.Best, c.Total)
		}
	}
}

func TestFig11Revival(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeping campaign")
	}
	res := run[*Fig11Result](t, "fig11", Config{Seed: 42, Scale: 0.5})
	rate := func(archName, strategy string) float64 {
		for _, s := range res.Series {
			if s.Arch == archName && s.Strategy == strategy {
				return s.PerMin
			}
		}
		t.Fatalf("missing series %s/%s", archName, strategy)
		return 0
	}
	// Comet/Rocket Lake: both work; rhoHammer is substantially faster.
	for _, a := range []string{"Comet Lake", "Rocket Lake"} {
		bl, rho := rate(a, "baseline"), rate(a, "rhoHammer")
		if bl <= 0 {
			t.Errorf("%s: baseline rate %.0f, want > 0", a, bl)
		}
		if rho < bl*2 {
			t.Errorf("%s: rho rate %.0f not clearly above baseline %.0f", a, rho, bl)
		}
	}
	// Alder/Raptor Lake: baseline zero, rhoHammer alive.
	for _, a := range []string{"Alder Lake", "Raptor Lake"} {
		if bl := rate(a, "baseline"); bl != 0 {
			t.Errorf("%s: baseline rate %.0f, want 0", a, bl)
		}
		if rho := rate(a, "rhoHammer"); rho <= 0 {
			t.Errorf("%s: rhoHammer rate %.0f, want > 0", a, rho)
		}
	}
	// The cumulative series must be non-decreasing and consistent.
	for _, s := range res.Series {
		sum := 0
		for _, p := range s.Points {
			sum += p.Flips
		}
		if sum != s.Total {
			t.Errorf("%s/%s: series sum %d != total %d", s.Arch, s.Strategy, sum, s.Total)
		}
	}
}
