// Hot-path micro benchmarks of the public API, gated by cmd/benchdiff
// together with one steady-state benchmark per layer below (see
// EXPERIMENTS.md, "Benchmark regression gate"). The cost of
// regenerating each table and figure is measured end to end by
// perfbench, and its bytes are pinned by the goldens.
package rhohammer

import (
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
)

func BenchmarkMappingRecovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		atk, err := NewAttack(Options{Arch: RaptorLake(), Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if res := atk.RecoverMappingDetailed(); !res.OK() {
			b.Fatal(res.Err)
		}
	}
}

func BenchmarkHammerThroughput(b *testing.B) {
	atk, err := NewAttack(Options{Arch: RaptorLake(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := atk.RecommendedConfig()
	b.ReportAllocs()
	b.ResetTimer()
	var acts uint64
	for i := 0; i < b.N; i++ {
		res, err := atk.Hammer(KnownGood(), cfg, 0, 4096, 20e6)
		if err != nil {
			b.Fatal(err)
		}
		acts += res.ACTs
	}
	b.ReportMetric(float64(acts)/float64(b.N), "ACTs/op")
}

// BenchmarkHammerPatternSteadyState measures the per-call cost of the
// hammer loop once everything is warm: the program is cached, every
// reachable weak cell has already flipped, and all row state is
// materialized. This is the regime long fuzzing campaigns live in, and
// it must not allocate at all.
func BenchmarkHammerPatternSteadyState(b *testing.B) {
	atk, err := NewAttack(Options{Arch: RaptorLake(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := atk.RecommendedConfig()
	s := atk.Session()
	pat := KnownGood()
	// Warm-up pass: builds the program, materializes the neighborhood,
	// and exhausts the reachable flips.
	if _, err := s.HammerPattern(pat, cfg, 0, 4096, 2_000_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.HammerPattern(pat, cfg, 0, 4096, 200_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActivate isolates dram.Device.Activate — the innermost
// simulation operation — with a realistic double-sided access pattern
// and REF cadence (~173 ACTs per tREFI at ~45ns per activation).
func BenchmarkActivate(b *testing.B) {
	dev := dram.NewDevice(arch.DIMMS1(), 1)
	rows := [4]uint64{4096, 4098, 4100, 4102}
	b.ReportAllocs()
	b.ResetTimer()
	now := 0.0
	for i := 0; i < b.N; i++ {
		dev.Activate(0, rows[i&3], now)
		now += 45
		if i%173 == 172 {
			dev.Refresh(now)
		}
	}
}
