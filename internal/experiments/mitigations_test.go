package experiments

import (
	"testing"

	"rhohammer/internal/arch"
)

func TestMitigationsBlockRhoHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("mitigation matrix")
	}
	res := run[*MitigationsResult](t, "mitigations", Config{Seed: 42, Scale: 0.5})
	get := func(mit, strat string) MitigationRow {
		for _, r := range res.Rows {
			if r.Mitigation == mit && r.Strategy == strat {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", mit, strat)
		return MitigationRow{}
	}
	// Undefended DDR4: rhoHammer flips, baseline does not (Raptor Lake).
	if get("DDR4 TRR only", "rhoHammer").Flips == 0 {
		t.Error("rhoHammer produced no flips on the undefended platform")
	}
	if get("DDR4 TRR only", "baseline").Flips != 0 {
		t.Error("baseline flipped bits on Raptor Lake")
	}
	// Every §6 defense shuts rhoHammer down.
	for _, mit := range []string{"DDR4 + pTRR (BIOS)", "DDR4 + row swap", "DDR5 (RFM)"} {
		if r := get(mit, "rhoHammer"); r.Flips != 0 {
			t.Errorf("%s failed to stop rhoHammer: %d flips", mit, r.Flips)
		}
		if r := get(mit, "rhoHammer"); r.Events == 0 {
			t.Errorf("%s took no mitigation actions", mit)
		}
	}
}

func TestAblationBothIngredientsNeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation matrix")
	}
	res := run[*AblationResult](t, "ablation-cs", Config{Seed: 42, Scale: 0.5})
	for _, archName := range []string{"Alder Lake", "Raptor Lake"} {
		get := func(variant string) AblationRow {
			for _, r := range res.Rows {
				if r.Arch == archName && r.Variant == variant {
					return r
				}
			}
			t.Fatalf("row %s/%s missing", archName, variant)
			return AblationRow{}
		}
		if get("both (rhoHammer)").Flips == 0 {
			t.Errorf("%s: full counter-speculation produced no flips", archName)
		}
		for _, partial := range []string{"neither", "obfuscation only", "nops only"} {
			if f := get(partial).Flips; f >= get("both (rhoHammer)").Flips {
				t.Errorf("%s: %q (%d flips) should underperform the full technique", archName, partial, f)
			}
		}
		// The ordering story: nops alone restore much order but not
		// all; obfuscation alone restores almost none.
		if get("nops only").MissRate <= get("obfuscation only").MissRate {
			t.Errorf("%s: nops-only should order far more than obfuscation-only", archName)
		}
		if get("both (rhoHammer)").MissRate < get("nops only").MissRate {
			t.Errorf("%s: the full technique should order at least as much as nops alone", archName)
		}
	}
}

func TestSamplerSizeAblationMonotoneRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("sampler sweep")
	}
	res := run[*SamplerAblationResult](t, "ablation-sampler", Config{Seed: 42, Scale: 0.5})
	if len(res.Rows) < 4 {
		t.Fatal("too few points")
	}
	// KnownGood's two decoys need a sampler large enough to track them
	// plus the leading pairs; tiny samplers get distracted trivially
	// (flips), mid sizes track faithfully (flips), and the pattern
	// remains effective as capacity grows because decoy counts stay
	// dominant. The invariant we check: capacity >= 6 always flips.
	for _, r := range res.Rows {
		if r.SamplerSize >= 6 && r.Flips == 0 {
			t.Errorf("sampler %d: pattern unexpectedly defeated", r.SamplerSize)
		}
	}
}

func TestDDR5SessionGeometry(t *testing.T) {
	s := newSession(arch.RaptorLake(), arch.DIMMD1(), 42)
	if s.Map.Banks() != 64 {
		t.Errorf("DDR5 mapping addresses %d banks, want 64 (sub-channel function)", s.Map.Banks())
	}
	if s.Dev.Banks() != 64 {
		t.Errorf("DDR5 device has %d banks", s.Dev.Banks())
	}
}
