package hammer

import (
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/pattern"
)

// The §4.5 quantitative core: a DDR4 bank admits ~164 activations per
// tREFI (7800 ns / ~47.5 ns tRC); ordered prefetch hammering approaches
// that budget while load hammering reaches roughly half of it. The
// device counts both sides of the rate: the ACTs the run issued and the
// REFs that delimit its intervals.
func TestActivationBudgetPerInterval(t *testing.T) {
	pat := pattern.KnownGood()
	perInterval := func(s *Session, cfg Config) float64 {
		t.Helper()
		res, err := s.HammerPatternFor(pat, cfg, 0, 5000, 60e6)
		if err != nil {
			t.Fatal(err)
		}
		if res.ACTs == 0 {
			t.Fatal("run issued no activations")
		}
		return float64(res.ACTs) / float64(s.Dev.RefreshCount())
	}
	s := newTestSession(t, arch.CometLake(), arch.DIMMS3())
	pf := perInterval(s, RhoHammer(s.Arch, 1, 190))
	ld := perInterval(newTestSession(t, arch.CometLake(), arch.DIMMS3()), Baseline())

	if pf < 110 || pf > 170 {
		t.Errorf("prefetch ACTs/tREFI = %.1f, want near the ~150 bank budget", pf)
	}
	if ld > pf*0.75 {
		t.Errorf("load ACTs/tREFI %.1f should sit well below prefetch %.1f (§4.5)", ld, pf)
	}
	// Decoy rows must dominate the per-row counts (TRR evasion).
	decoys := s.Dev.ActCount(0, 5040) + s.Dev.ActCount(0, 5046)
	pairs := s.Dev.ActCount(0, 5000) + s.Dev.ActCount(0, 5002)
	if decoys <= pairs {
		t.Errorf("decoy counts %d should exceed pair counts %d", decoys, pairs)
	}
}
