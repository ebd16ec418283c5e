// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrate. Each experiment is a pure
// function of (seed, scale) returning a structured result with a text
// renderer; cmd/experiments exposes them on the command line and the
// repository's top-level benchmarks time them.
//
// Scale trades fidelity for runtime: 1.0 approximates the paper's
// budgets (hours of simulated hammering), while the defaults used by
// tests and benchmarks run in seconds and preserve every qualitative
// conclusion. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
	"rhohammer/internal/hammer"
	"rhohammer/internal/mapping"
	"rhohammer/internal/mem"
	"rhohammer/internal/memctrl"
	"rhohammer/internal/stats"
	"rhohammer/internal/timing"
)

// Config selects the effort and determinism of an experiment run.
type Config struct {
	// Seed fixes all randomness (DIMM vulnerability maps, speculation,
	// fuzzing). The same seed reproduces identical numbers; each
	// campaign cell derives its own stream from the seed and its stable
	// cell key (see internal/campaign).
	Seed int64
	// Scale multiplies the default (CI-sized) workload budgets; 1 is
	// the fast default, larger values approach the paper's budgets.
	Scale float64
	// Workers sizes each campaign's cell pool (campaign.Run); <= 0
	// means GOMAXPROCS. Results are bit-identical for every value —
	// Workers only changes wall-clock time.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// scaled returns base*Scale, at least min.
func (c Config) scaled(base, min int) int {
	n := int(float64(base) * c.Scale)
	if n < min {
		n = min
	}
	return n
}

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render(w io.Writer)
}

// DefaultDIMM is the module used by experiments that fix the DIMM (the
// paper's workhorse is the vendor-S family; S3 flips on every platform).
func DefaultDIMM() *arch.DIMM { return arch.DIMMS3() }

// newSession builds a hammer session or panics — experiment inputs are
// all static profiles, so a failure is a programming error.
func newSession(a *arch.Arch, d *arch.DIMM, seed int64) *hammer.Session {
	s, err := hammer.NewSession(a, d, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return s
}

// newMeasurerFor builds the timing stack (device, controller, measurer,
// pool) for reverse-engineering experiments on a platform.
func newMeasurerFor(a *arch.Arch, d *arch.DIMM, seed int64) (*timing.Measurer, *mem.Pool) {
	truth, ok := mapping.ForPlatform(a.MappingFamily, d.SizeGiB)
	if !ok {
		panic(fmt.Sprintf("experiments: no mapping for %s/%d GiB", a.MappingFamily, d.SizeGiB))
	}
	r := stats.NewRand(seed)
	dev := dram.NewDevice(d, seed)
	ctrl := memctrl.New(a, truth, dev)
	return timing.NewMeasurer(ctrl, r), mem.NewPool(truth.Size(), 0.7, r)
}

// TunedNops returns the tuned single-bank counter-speculation NOP count
// for an architecture. The constants live in internal/hammer (the same
// table Attack.RecommendedSingleBankConfig consumes);
// TestTunedNopsNearOptimum verifies they track the tuning phase.
func TunedNops(a *arch.Arch) int { return hammer.TunedNops(a) }

// TunedNopsMulti is the equivalent optimum for multi-bank hammering:
// bank interleaving already spreads each bank's accesses, so far fewer
// NOPs are needed before the rate penalty dominates.
func TunedNopsMulti(a *arch.Arch) int { return hammer.TunedNopsMulti(a) }

// OptimalBanks is the multi-bank width fuzzing identifies as optimal
// (Fig. 9 peaks at 3 banks on Comet Lake; the newer platforms behave
// alike on this substrate).
func OptimalBanks(a *arch.Arch) int { return hammer.OptimalBanks(a) }

// RhoS returns the ρHammer single-bank configuration for an
// architecture: prefetch hammering with counter-speculation.
func RhoS(a *arch.Arch) hammer.Config { return hammer.RecommendedSingleBank(a) }

// RhoM returns the ρHammer optimal multi-bank configuration.
func RhoM(a *arch.Arch) hammer.Config { return hammer.Recommended(a) }

// BaselineS returns the load-based single-bank baseline
// (Blacksmith-style).
func BaselineS() hammer.Config { return hammer.Baseline() }

// BaselineM returns the load-based multi-bank baseline
// (SledgeHammer-style).
func BaselineM(a *arch.Arch) hammer.Config {
	c := hammer.Baseline()
	c.Banks = OptimalBanks(a)
	return c
}

// instrNames maps Fig. 6 series names to hammer instructions.
var instrNames = []struct {
	Name  string
	Instr hammer.Instr
}{
	{"load", hammer.InstrLoad},
	{"prefetcht0", hammer.InstrPrefetchT0},
	{"prefetcht1", hammer.InstrPrefetchT1},
	{"prefetcht2", hammer.InstrPrefetchT2},
	{"prefetchnta", hammer.InstrPrefetchNTA},
}
