// Package rhohammer is a full-system reproduction of "ρHammer: Reviving
// RowHammer Attacks on New Architectures via Prefetching" (MICRO 2025)
// on a simulated substrate.
//
// The package exposes the paper's complete attack pipeline against
// behavioral models of the four evaluated Intel platforms (Comet,
// Rocket, Alder and Raptor Lake) and seven DDR4 DIMMs:
//
//   - DRAM address-mapping reverse-engineering (Algorithm 1: the
//     Duet/Trios/Quartet structured deduction), plus re-implementations
//     of the DRAMA/DRAMDig/DARE baselines it is compared against;
//   - prefetch-based hammering with multi-bank parallelism and the
//     counter-speculation technique (control-flow obfuscation + NOP
//     pseudo-barriers, with the automatic tuning phase);
//   - non-uniform (frequency-domain) pattern fuzzing and sweeping;
//   - the end-to-end PTE-corruption exploit with buddy-allocator
//     massaging, decomposed into swappable Allocator / Hammerer /
//     Victim stages (internal/chain) selectable via ChainPlan.
//
// A minimal session:
//
//	atk, err := rhohammer.NewAttack(rhohammer.Options{
//		Arch: rhohammer.RaptorLake(),
//		DIMM: rhohammer.DIMMS3(),
//		Seed: 1,
//	})
//	m, _ := atk.RecoverMapping()     // Algorithm 1
//	tuned, _ := atk.TuneCounterSpec() // NOP pseudo-barrier optimum
//	rep, _ := atk.Fuzz(rhohammer.FuzzOptions{})
//	res, _ := atk.Sweep(rep.Best.Pattern, rhohammer.SweepOptions{})
//
// Everything is deterministic in the seed. See DESIGN.md for the
// simulation model and EXPERIMENTS.md for paper-vs-measured results.
package rhohammer

import (
	"fmt"

	"rhohammer/internal/arch"
	"rhohammer/internal/chain"
	"rhohammer/internal/hammer"
	"rhohammer/internal/mapping"
	"rhohammer/internal/mem"
	"rhohammer/internal/pattern"
	"rhohammer/internal/reverse"
	"rhohammer/internal/sweep"
	"rhohammer/internal/timing"
)

// Re-exported core types. The aliases give downstream users direct
// access to the full types while the implementation lives in internal
// packages.
type (
	// Arch is a CPU architecture profile (Table 1).
	Arch = arch.Arch
	// DIMM is a DDR4 module profile (Table 2).
	DIMM = arch.DIMM
	// Mapping is a DRAM address mapping (bank XOR functions + row bits).
	Mapping = mapping.Mapping
	// BankFunc is one XOR bank-addressing function.
	BankFunc = mapping.BankFunc
	// Pattern is a non-uniform hammering pattern.
	Pattern = pattern.Pattern
	// Tuple is one aggressor tuple of a pattern.
	Tuple = pattern.Tuple
	// HammerConfig selects instruction, style, banks and barriers.
	HammerConfig = hammer.Config
	// HammerResult is the outcome of hammering one location.
	HammerResult = hammer.Result
	// FuzzOptions configures a fuzzing campaign.
	FuzzOptions = hammer.FuzzOptions
	// FuzzReport summarizes a fuzzing campaign.
	FuzzReport = hammer.FuzzReport
	// TuneResult is the NOP-count tuning outcome.
	TuneResult = hammer.TuneResult
	// RefineResult is a pattern-refinement outcome.
	RefineResult = hammer.RefineResult
	// SweepOptions configures a sweeping (templating) run.
	SweepOptions = sweep.Options
	// SweepResult aggregates a sweep.
	SweepResult = sweep.Result
	// ChainPlan names an allocator/hammerer/victim attack composition.
	ChainPlan = chain.Plan
	// ChainResult is a composed chain's end-to-end outcome.
	ChainResult = chain.Result
	// RecoverResult is a reverse-engineering outcome.
	RecoverResult = reverse.Result
)

// Architecture profiles (Table 1).
var (
	CometLake  = arch.CometLake
	RocketLake = arch.RocketLake
	AlderLake  = arch.AlderLake
	RaptorLake = arch.RaptorLake
	AllArchs   = arch.All
)

// DIMM profiles (Table 2).
var (
	DIMMS1 = arch.DIMMS1
	DIMMS2 = arch.DIMMS2
	DIMMS3 = arch.DIMMS3
	DIMMS4 = arch.DIMMS4
	DIMMS5 = arch.DIMMS5
	DIMMH1 = arch.DIMMH1
	DIMMM1 = arch.DIMMM1
	// DIMMD1 is the DDR5 module with refresh management (§6).
	DIMMD1   = arch.DIMMD1
	AllDIMMs = arch.AllDIMMs
)

// Pattern constructors.
var (
	// DoubleSided is the classic uniform pattern TRR defeats.
	DoubleSided = pattern.DoubleSided
	// KnownGood is a hand-crafted TRR-bypassing non-uniform pattern.
	KnownGood = pattern.KnownGood
	// CompactPattern fits within a 4 MiB contiguous region (buddy
	// allocator).
	CompactPattern = chain.CompactPattern
	// HugePattern fits within a 2 MiB THP region (thp allocator).
	HugePattern = chain.HugePattern
)

// Chain stage listings: the names a ChainPlan accepts.
var (
	// ChainAllocators lists the allocator stages (buddy, thp).
	ChainAllocators = chain.Allocators
	// ChainHammerers lists the hammerer stages (rho, load).
	ChainHammerers = chain.Hammerers
	// ChainVictims lists the victim stages (pte, key).
	ChainVictims = chain.Victims
)

// Hammer configuration constructors.
var (
	// BaselineConfig is the conventional load-based attack.
	BaselineConfig = hammer.Baseline
	// RhoConfig is ρHammer's prefetch + counter-speculation attack for
	// the given architecture, bank count and NOP count.
	RhoConfig = hammer.RhoHammer
)

// Options configures an attack session.
type Options struct {
	// Arch selects the CPU platform; defaults to Raptor Lake.
	Arch *Arch
	// DIMM selects the memory module; defaults to S3.
	DIMM *DIMM
	// Seed fixes all randomness; the same seed reproduces identical
	// flips. Defaults to 1.
	Seed int64
	// PTRR enables the platform "Rowhammer Prevention" mitigation
	// (§6), which suppresses nearly all flips.
	PTRR bool
}

// Attack is one attack session against a (CPU, DIMM) platform. It is
// not safe for concurrent use; create one Attack per goroutine.
type Attack struct {
	session *hammer.Session
	opts    Options
}

// NewAttack creates a session for the given platform.
func NewAttack(o Options) (*Attack, error) {
	if o.Arch == nil {
		o.Arch = RaptorLake()
	}
	if o.DIMM == nil {
		o.DIMM = DIMMS3()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	s, err := hammer.NewSession(o.Arch, o.DIMM, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("rhohammer: %w", err)
	}
	s.EnablePTRR(o.PTRR)
	return &Attack{session: s, opts: o}, nil
}

// Arch returns the session's architecture profile.
func (a *Attack) Arch() *Arch { return a.session.Arch }

// DIMM returns the session's DIMM profile.
func (a *Attack) DIMM() *DIMM { return a.session.DIMM }

// GroundTruthMapping returns the platform's real DRAM address mapping —
// what RecoverMapping is expected to find.
func (a *Attack) GroundTruthMapping() *Mapping { return a.session.Map }

// Session exposes the underlying hammer session for advanced use.
func (a *Attack) Session() *hammer.Session { return a.session }

// RecoverMapping reverse-engineers the platform's DRAM address mapping
// with Algorithm 1 (Duet/Trios/Quartet) over the timing side channel.
func (a *Attack) RecoverMapping() (*Mapping, error) {
	res := a.RecoverMappingDetailed()
	if !res.OK() {
		return nil, fmt.Errorf("rhohammer: mapping recovery failed: %w", res.Err)
	}
	return res.Mapping, nil
}

// RecoverMappingDetailed returns the full reverse-engineering result
// (threshold calibration, measurement counts, simulated runtime).
func (a *Attack) RecoverMappingDetailed() RecoverResult {
	r := a.session.Rand
	meas := timing.NewMeasurer(a.session.Ctrl, r)
	pool := mem.NewPool(a.session.Map.Size(), 0.7, r)
	return reverse.Recover(meas, pool, reverse.Options{})
}

// TuneCounterSpec runs the counter-speculation tuning phase: it sweeps
// the NOP pseudo-barrier count and returns the platform optimum.
func (a *Attack) TuneCounterSpec() (TuneResult, error) {
	base := hammer.Config{Instr: hammer.InstrPrefetchT2, Banks: 1, Obfuscate: true}
	return a.session.TuneNops(pattern.KnownGood(), base, 1000, 50, 150e6, 2)
}

// Hammer executes one pattern at a location for a simulated duration.
func (a *Attack) Hammer(p *Pattern, cfg HammerConfig, bank int, baseRow uint64, durationNS float64) (HammerResult, error) {
	a.session.ResetDevice()
	return a.session.HammerPatternFor(p, cfg, bank, baseRow, durationNS)
}

// Fuzz runs a non-uniform pattern fuzzing campaign under cfg (use
// RhoConfig or BaselineConfig).
func (a *Attack) FuzzWith(cfg HammerConfig, opt FuzzOptions) (FuzzReport, error) {
	return a.session.Fuzz(cfg, opt)
}

// Fuzz runs a campaign with ρHammer's recommended configuration for the
// session's architecture (prefetch, counter-speculation, 3 banks).
func (a *Attack) Fuzz(opt FuzzOptions) (FuzzReport, error) {
	return a.session.Fuzz(a.RecommendedConfig(), opt)
}

// RecommendedConfig is ρHammer's multi-bank counter-speculation
// configuration with NOP counts pre-tuned for the architecture. The
// optimal pseudo-barrier length depends on bank parallelism (the
// interleaving itself spreads per-bank accesses), so the single-bank
// variant below uses larger counts; both draw from the tuned tables in
// internal/hammer.
func (a *Attack) RecommendedConfig() HammerConfig {
	return hammer.Recommended(a.session.Arch)
}

// RecommendedSingleBankConfig is the single-bank equivalent of
// RecommendedConfig (used where the workload is confined to one bank,
// e.g. templating a contiguous region).
func (a *Attack) RecommendedSingleBankConfig() HammerConfig {
	return hammer.RecommendedSingleBank(a.session.Arch)
}

// Refine hill-climbs from an effective pattern by replaying mutated
// variants and keeping improvements — the step the fuzzing workflow
// applies to campaign winners before sweeping them at scale.
func (a *Attack) Refine(p *Pattern, rounds int) (RefineResult, error) {
	return a.session.Refine(p, a.RecommendedConfig(), rounds, 3, 150e6)
}

// Sweep re-applies a pattern across many physical locations (the
// templating operation) with the recommended configuration.
func (a *Attack) Sweep(p *Pattern, opt SweepOptions) (SweepResult, error) {
	return sweep.Run(a.session, p, a.RecommendedConfig(), opt)
}

// SweepWith sweeps under an explicit configuration.
func (a *Attack) SweepWith(p *Pattern, cfg HammerConfig, opt SweepOptions) (SweepResult, error) {
	return sweep.Run(a.session, p, cfg, opt)
}

// Chain runs an allocator/hammerer/victim composition as one end-to-end
// attack. The zero plan is the paper's §5.3 PTE-corruption attack: the
// buddy/rho/pte triple with the platform-tuned single-bank
// configuration.
func (a *Attack) Chain(p ChainPlan) (ChainResult, error) {
	return p.Run(a.session)
}
