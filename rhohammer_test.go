package rhohammer

import "testing"

func TestAttackDefaults(t *testing.T) {
	atk, err := NewAttack(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if atk.Arch().Name != "Raptor Lake" || atk.DIMM().ID != "S3" {
		t.Errorf("defaults: %s / %s", atk.Arch().Name, atk.DIMM().ID)
	}
	if atk.GroundTruthMapping() == nil || atk.Session() == nil {
		t.Error("accessors returned nil")
	}
}

func TestAttackRejectsImpossiblePlatform(t *testing.T) {
	bad := RaptorLake()
	bad.MappingFamily = "unknown"
	if _, err := NewAttack(Options{Arch: bad}); err == nil {
		t.Error("unknown mapping family accepted")
	}
}

func TestRecoverMappingMatchesGroundTruth(t *testing.T) {
	for _, mk := range []func() *Arch{CometLake, RaptorLake} {
		atk, err := NewAttack(Options{Arch: mk(), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, err := atk.RecoverMapping()
		if err != nil {
			t.Fatalf("%s: %v", atk.Arch().Name, err)
		}
		if !m.Equal(atk.GroundTruthMapping()) {
			t.Errorf("%s: recovered mapping differs from truth", atk.Arch().Name)
		}
	}
}

func TestRecommendedConfigs(t *testing.T) {
	atk, _ := NewAttack(Options{Arch: AlderLake()})
	multi := atk.RecommendedConfig()
	single := atk.RecommendedSingleBankConfig()
	if multi.Banks <= single.Banks {
		t.Error("multi-bank config should use more banks")
	}
	if multi.Nops >= single.Nops {
		t.Error("single-bank config should use more NOPs")
	}
	if !multi.Obfuscate || !single.Obfuscate {
		t.Error("counter-speculation must include obfuscation")
	}
}

// The package-level story: baseline dead on Raptor Lake, ρHammer alive.
func TestFacadeEndToEndFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("integration flow")
	}
	atk, err := NewAttack(Options{Arch: RaptorLake(), DIMM: DIMMS3(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := atk.Hammer(KnownGood(), BaselineConfig(), 0, 4096, 200e6)
	if err != nil {
		t.Fatal(err)
	}
	if bl.FlipCount() != 0 {
		t.Errorf("baseline flipped %d bits on Raptor Lake", bl.FlipCount())
	}
	rho, err := atk.Hammer(KnownGood(), atk.RecommendedConfig(), 0, 4096, 200e6)
	if err != nil {
		t.Fatal(err)
	}
	if rho.FlipCount() == 0 {
		t.Error("rhoHammer produced no flips")
	}

	sw, err := atk.Sweep(KnownGood(), SweepOptions{Locations: 4, DurationPerLocationNS: 120e6})
	if err != nil {
		t.Fatal(err)
	}
	if sw.TotalFlips == 0 {
		t.Error("sweep found no flips")
	}

	ex, err := atk.Chain(ChainPlan{Regions: 8})
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	if !ex.Success {
		t.Error("chain did not reach page-table R/W")
	}
}

func TestTuneCounterSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning sweep")
	}
	atk, _ := NewAttack(Options{Arch: AlderLake(), Seed: 5})
	tune, err := atk.TuneCounterSpec()
	if err != nil {
		t.Fatal(err)
	}
	if tune.BestFlips == 0 {
		t.Error("tuning found no flips on Alder Lake")
	}
}

func TestPTRROptionBlocksAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("mitigation check")
	}
	atk, err := NewAttack(Options{Arch: CometLake(), DIMM: DIMMS4(), Seed: 9, PTRR: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := atk.Hammer(KnownGood(), atk.RecommendedConfig(), 0, 4096, 200e6)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlipCount() != 0 {
		t.Errorf("pTRR enabled but %d flips", res.FlipCount())
	}
}

func TestFuzzWithBothStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz campaign")
	}
	atk, _ := NewAttack(Options{Arch: CometLake(), DIMM: DIMMS4(), Seed: 11})
	opt := FuzzOptions{Patterns: 5, Locations: 1, DurationNS: 120e6}
	rho, err := atk.Fuzz(opt)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := atk.FuzzWith(BaselineConfig(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rho.TotalFlips <= bl.TotalFlips {
		t.Errorf("rho fuzzing (%d) should beat baseline (%d) on Comet/S4",
			rho.TotalFlips, bl.TotalFlips)
	}
}
