package hammer

import (
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/pattern"
)

// TestSessionAuditEndToEnd runs a real hammering workload — the full
// engine pipeline: pattern lowering, speculative execution, controller
// timing, refresh scheduling — with the simcheck auditor attached, and
// requires the production device and the reference model to agree at
// every refresh boundary the run crosses.
func TestSessionAuditEndToEnd(t *testing.T) {
	s := newTestSession(t, arch.CometLake(), arch.DIMMS4())
	aud := s.EnableAudit()
	aud.PanicOnDivergence = false

	pat := pattern.DoubleSided(64)
	res, err := s.HammerPattern(pat, Recommended(s.Arch), 0, 5000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.Check(); err != nil {
		t.Fatalf("audit diverged during a live hammering session:\n%v", err)
	}
	if res.ACTs == 0 {
		t.Fatal("session issued no activations; audit test is vacuous")
	}
	if aud.Ref.ActivationCount() != s.Dev.ActivationCount() {
		t.Fatalf("reference saw %d activations, device %d",
			aud.Ref.ActivationCount(), s.Dev.ActivationCount())
	}
}

// TestSessionAuditEnvGate verifies the RHOHAMMER_SIMCHECK environment
// switch: set, a fresh session comes up with the auditor attached and
// panicking on divergence; unset or "0", it does not.
func TestSessionAuditEnvGate(t *testing.T) {
	t.Setenv(SimcheckEnv, "1")
	s, err := NewSession(arch.CometLake(), arch.DIMMS1(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Auditor() == nil {
		t.Fatal("RHOHAMMER_SIMCHECK=1 did not attach an auditor")
	}
	if !s.Auditor().PanicOnDivergence {
		t.Error("env-gated auditor must panic on divergence")
	}

	t.Setenv(SimcheckEnv, "0")
	s2, err := NewSession(arch.CometLake(), arch.DIMMS1(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Auditor() != nil {
		t.Error("RHOHAMMER_SIMCHECK=0 attached an auditor")
	}
}
