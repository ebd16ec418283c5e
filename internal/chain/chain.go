// Package chain decomposes the paper's §5.3 end-to-end attack into
// three swappable stages behind one engine, in the style of SWAGE's
// allocator/hammerer/victim traits:
//
//   - an Allocator yields physically contiguous victim regions from
//     internal/mem (buddy-exhaustion 4 MiB regions as in the paper, or
//     THP-style 2 MiB huge pages);
//   - a Hammerer templates bit flips over a region via internal/hammer
//     (ρHammer's prefetch + counter-speculation strategy, or the
//     conventional load baseline);
//   - a Victim interprets the templated flips and runs placement plus
//     flip re-triggering (PTE frame-number corruption as in §5.3, or
//     key/byte corruption in a sprayed secret buffer).
//
// An Engine composes any triple into one Result with per-phase
// simulated timings, so full attack chains multiply combinatorially
// instead of each costing a bespoke rewrite. The Plan type names a
// triple declaratively ("buddy-rho-pte"), which is what the registered
// chain-grid campaign, cmd/exploit's selection flags and the public
// rhohammer facade build from.
//
// Determinism contract: an Engine consumes the session's RNG streams in
// a fixed order (allocate, then template each region in address order,
// then attempt each target in templating order), so a chain's outcome
// is a pure function of (platform, DIMM, seed, plan). The e2e
// experiment runs the buddy/rho/pte triple and its output bytes are
// pinned by goldens.
package chain

import (
	"fmt"

	"rhohammer/internal/dram"
	"rhohammer/internal/hammer"
)

// Region is one physically contiguous victim region an Allocator
// produced.
type Region struct {
	// Base is the region's physical base address.
	Base uint64
	// Bytes is the region's size.
	Bytes uint64
}

// Allocation is an Allocator's outcome: the regions obtained and the
// simulated cost of obtaining them.
type Allocation struct {
	Regions []Region
	// TimeNS is the simulated massaging time the allocation cost
	// (draining the allocator, faulting huge pages).
	TimeNS float64
}

// Allocator yields physically contiguous victim regions. Allocate
// consumes session RNG (physical placement is unpredictable to the
// attacker), so implementations must draw only from s.Rand.
type Allocator interface {
	Name() string
	// Allocate returns n regions, ascending by base address.
	Allocate(s *hammer.Session, n int) (Allocation, error)
}

// Flip is one templated bit flip annotated with the placement that
// produced it — everything a Victim needs to judge and re-trigger it.
type Flip struct {
	dram.Flip
	// PhysAddr is the physical byte address holding the flipped bit
	// (zero if the mapping could not invert the location).
	PhysAddr uint64
	// HammerBank and HammerBaseRow record the templating placement, so
	// the victim can re-trigger the flip at the exact same spot.
	HammerBank    int
	HammerBaseRow uint64
	// Region is the region the flip was templated in.
	Region Region
}

// Templating is a Hammerer's outcome for one region.
type Templating struct {
	// Flips are the raw templated flips, in device observation order.
	Flips []Flip
	// TimeNS is the simulated hammering time spent on the region.
	TimeNS float64
	// Skipped marks regions whose row window cannot hold the pattern
	// (no hammering was attempted; the engine moves on).
	Skipped bool
}

// Hammerer templates flips over a region and re-triggers them during
// victim placement.
type Hammerer interface {
	Name() string
	// Template hammers the region once and returns the flips observed.
	Template(s *hammer.Session, r Region, durationNS float64) (Templating, error)
	// Retrigger re-hammers at an explicit placement to confirm a flip
	// reproduces; the victim chooses the placement (normally the flip's
	// recorded HammerBank/HammerBaseRow).
	Retrigger(s *hammer.Session, bank int, baseRow uint64, durationNS float64) (hammer.Result, error)
}

// Target is one flip a Victim selected as exploitable.
type Target struct {
	Flip Flip
	// Bit is the flip's bit position within the victim object (the PTE
	// bit for the pte victim, the key bit for the key victim).
	Bit int
}

// Attempt is a Victim's outcome for one target.
type Attempt struct {
	// TimeNS is the simulated placement + re-trigger + verification
	// time, accumulated into the victim phase even on failure.
	TimeNS float64
	// Success marks a completed exploitation.
	Success bool
	// Addr, Value and Frame describe the corrupted object on success:
	// for the pte victim the corrupted PTE's address, its new value and
	// the attacker-reachable page-table frame; for the key victim the
	// faulted key byte's address, its corrupted value and the frame the
	// key page was massaged onto.
	Addr, Value, Frame uint64
	// Note explains a failed attempt ("direction mismatch", "did not
	// reproduce"), empty on success.
	Note string
}

// Victim interprets templated flips and exploits one of them.
type Victim interface {
	Name() string
	// Classify selects the flips this victim can exploit, preserving
	// templating order.
	Classify(s *hammer.Session, flips []Flip) []Target
	// Attempt massages the victim object onto the target and re-triggers
	// the flip through h. A non-nil error aborts the chain (re-trigger
	// machinery failure); an unsuccessful Attempt moves to the next
	// target.
	Attempt(s *hammer.Session, h Hammerer, t Target, durationNS float64) (Attempt, error)
}

// Reproduced reports whether the wanted flip appears in a re-hammer's
// flip list — the location-stability check every victim runs after a
// re-trigger.
func Reproduced(flips []dram.Flip, want dram.Flip) bool {
	for _, f := range flips {
		if f.Bank == want.Bank && f.Row == want.Row &&
			f.ByteInRow == want.ByteInRow && f.Bit == want.Bit {
			return true
		}
	}
	return false
}

// Typed chain errors. The engine wraps stage failures in these so
// callers (cmd/exploit, the chain-grid campaign) can tell failure modes
// apart without string matching.

// AllocError reports an Allocator failure.
type AllocError struct{ Err error }

func (e *AllocError) Error() string { return fmt.Sprintf("chain: allocation: %v", e.Err) }

// Unwrap exposes the allocator's error.
func (e *AllocError) Unwrap() error { return e.Err }

// TemplateError reports a Hammerer failure on one region.
type TemplateError struct {
	Region uint64
	Err    error
}

func (e *TemplateError) Error() string {
	return fmt.Sprintf("chain: templating region %#x: %v", e.Region, e.Err)
}

// Unwrap exposes the hammerer's error.
func (e *TemplateError) Unwrap() error { return e.Err }

// NoTargetsError reports that templating produced flips but the victim
// classified none of them as exploitable (or produced no flips at all).
type NoTargetsError struct{ TotalFlips int }

func (e *NoTargetsError) Error() string {
	return fmt.Sprintf("chain: templating found %d flips but none the victim can use", e.TotalFlips)
}

// ExhaustedError reports that every classified target failed placement
// or re-triggering.
type ExhaustedError struct{ Attempts int }

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("chain: no target survived massaging (%d attempts)", e.Attempts)
}

// RetriggerError reports a re-trigger machinery failure during an
// attempt (not a reproduction failure, which is a normal miss).
type RetriggerError struct{ Err error }

func (e *RetriggerError) Error() string { return fmt.Sprintf("chain: re-trigger: %v", e.Err) }

// Unwrap exposes the underlying hammer error.
func (e *RetriggerError) Unwrap() error { return e.Err }
