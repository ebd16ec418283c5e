package chain

import (
	"rhohammer/internal/hammer"
	"rhohammer/internal/obs"
)

// RunOptions bounds one chain run.
type RunOptions struct {
	// Regions is how many contiguous regions to allocate and template.
	// Default 12.
	Regions int
	// DurationPerLocationNS is the simulated hammer time per templated
	// spot (and per re-trigger). Default 150e6.
	DurationPerLocationNS float64
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Regions == 0 {
		o.Regions = 12
	}
	if o.DurationPerLocationNS == 0 {
		o.DurationPerLocationNS = 150e6
	}
	return o
}

// Phases carries the per-phase simulated timings of one chain run.
type Phases struct {
	// AllocNS is the allocator's massaging cost.
	AllocNS float64
	// TemplateNS is the total hammering time across regions.
	TemplateNS float64
	// VictimNS is the placement + re-trigger + verification time across
	// attempts.
	VictimNS float64
}

// TotalNS returns the full simulated end-to-end runtime.
func (p Phases) TotalNS() float64 { return p.AllocNS + p.TemplateNS + p.VictimNS }

// Result is the outcome of one composed chain run.
type Result struct {
	// Regions is how many regions the allocator produced; Skipped how
	// many of them the hammerer's pattern could not fit.
	Regions int
	Skipped int
	// TotalFlips counts every templated flip; Targets are the ones the
	// victim classified as exploitable, in templating order.
	TotalFlips int
	Targets    []Target
	// Phases are the per-phase simulated timings.
	Phases Phases
	// Attempts is how many targets were tried before one succeeded.
	Attempts int
	// Success indicates the victim completed its exploitation; Addr,
	// Value and Frame are the successful Attempt's description.
	Success            bool
	Addr, Value, Frame uint64
}

// Engine composes an allocator, a hammerer and a victim into one
// end-to-end attack pipeline.
type Engine struct {
	Allocator Allocator
	Hammerer  Hammerer
	Victim    Victim
}

// Run executes the chain: allocate regions, template each one, classify
// the flips, then attempt targets until one succeeds. Stage failures
// return typed errors (AllocError, TemplateError, NoTargetsError,
// RetriggerError, ExhaustedError) alongside the partial Result.
//
// RNG-stream order is part of the contract: Allocate first, then one
// Template call per region in ascending address order, then one
// re-trigger per attempted target in templating order — the operation
// order the e2e golden pins.
func (e Engine) Run(s *hammer.Session, opt RunOptions) (Result, error) {
	opt = opt.withDefaults()
	var res Result
	res, err := e.run(s, opt)
	if obs.Enabled() {
		obs.ChainRuns.Inc()
		obs.ChainRegions.Add(int64(res.Regions))
		obs.ChainTemplateFlips.Add(int64(res.TotalFlips))
		obs.ChainTargets.Add(int64(len(res.Targets)))
		obs.ChainAttempts.Add(int64(res.Attempts))
		if res.Success {
			obs.ChainSuccesses.Inc()
		}
		obs.ChainAllocNS.Add(int64(res.Phases.AllocNS))
		obs.ChainTemplateNS.Add(int64(res.Phases.TemplateNS))
		obs.ChainVictimNS.Add(int64(res.Phases.VictimNS))
	}
	return res, err
}

func (e Engine) run(s *hammer.Session, opt RunOptions) (Result, error) {
	var res Result

	// Phase 0: allocation.
	alloc, err := e.Allocator.Allocate(s, opt.Regions)
	if err != nil {
		return res, &AllocError{Err: err}
	}
	res.Regions = len(alloc.Regions)
	res.Phases.AllocNS += alloc.TimeNS

	// Phase 1: template every region.
	var flips []Flip
	for _, r := range alloc.Regions {
		tm, err := e.Hammerer.Template(s, r, opt.DurationPerLocationNS)
		if err != nil {
			return res, &TemplateError{Region: r.Base, Err: err}
		}
		if tm.Skipped {
			res.Skipped++
			continue
		}
		res.Phases.TemplateNS += tm.TimeNS
		res.TotalFlips += len(tm.Flips)
		flips = append(flips, tm.Flips...)
	}

	// Phase 2: classification.
	res.Targets = e.Victim.Classify(s, flips)
	if len(res.Targets) == 0 {
		return res, &NoTargetsError{TotalFlips: res.TotalFlips}
	}

	// Phase 3: placement and re-triggering, target by target.
	for _, t := range res.Targets {
		res.Attempts++
		at, err := e.Victim.Attempt(s, e.Hammerer, t, opt.DurationPerLocationNS)
		res.Phases.VictimNS += at.TimeNS
		if err != nil {
			return res, &RetriggerError{Err: err}
		}
		if at.Success {
			res.Success = true
			res.Addr, res.Value, res.Frame = at.Addr, at.Value, at.Frame
			return res, nil
		}
	}
	return res, &ExhaustedError{Attempts: res.Attempts}
}
