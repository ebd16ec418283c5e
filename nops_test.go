package rhohammer

import (
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/hammer"
)

// TestRecommendedConfigsShareTunedTables pins the single-home property:
// the Attack recommendations consume the tuned NOP/bank tables in
// internal/hammer, so the numbers can never drift apart again.
func TestRecommendedConfigsShareTunedTables(t *testing.T) {
	for _, a := range arch.All() {
		atk, err := NewAttack(Options{Arch: a})
		if err != nil {
			t.Fatal(err)
		}

		multi := atk.RecommendedConfig()
		if multi.Nops != hammer.TunedNopsMulti(a) {
			t.Errorf("%s: RecommendedConfig Nops %d != hammer.TunedNopsMulti %d",
				a.Name, multi.Nops, hammer.TunedNopsMulti(a))
		}
		if multi.Banks != hammer.OptimalBanks(a) {
			t.Errorf("%s: RecommendedConfig Banks %d != hammer.OptimalBanks %d",
				a.Name, multi.Banks, hammer.OptimalBanks(a))
		}

		single := atk.RecommendedSingleBankConfig()
		if single.Nops != hammer.TunedNops(a) {
			t.Errorf("%s: RecommendedSingleBankConfig Nops %d != hammer.TunedNops %d",
				a.Name, single.Nops, hammer.TunedNops(a))
		}
		if single.Banks != 1 {
			t.Errorf("%s: RecommendedSingleBankConfig Banks = %d, want 1", a.Name, single.Banks)
		}
	}
}
