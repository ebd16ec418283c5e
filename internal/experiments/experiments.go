// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrate. Each experiment is a campaign
// spec in the Registry, a pure function of (seed, scale) whose result
// renders as text; Run executes one by name. cmd/experiments exposes
// them on the command line, and WriteEnvelope writes a result as the
// canonical JSON envelope that cmd/experiments -json and serverd's
// result endpoint share. The envelope carries no scheduling data: a
// run's workers and wall times belong to its obs manifest.
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

// baselineM returns the load-based multi-bank baseline
// (SledgeHammer-style).
func baselineM(a *arch.Arch) hammer.Config {
	c := hammer.Baseline()
	c.Banks = hammer.OptimalBanks(a)
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
