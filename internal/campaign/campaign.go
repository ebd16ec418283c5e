// Package campaign turns the paper's evaluation grids into declarative,
// deterministically parallel campaigns.
//
// The evaluation (Tables 3–7, Figs. 6–12) is a collection of grids:
// every table or figure is a cartesian product of independent cells —
// (architecture, DIMM, hammer configuration, pattern, budget) — whose
// results are then assembled into one rendered artifact. A Spec
// describes such a grid declaratively, a Registry names every Spec the
// repository knows how to build, and a Pool — the package's one cell
// scheduler — executes the cells of one or many Specs on a fixed set
// of workers that pop one FIFO queue of cells. Run is the one-shot
// form: a private Pool sized to the grid, closed when the campaign is
// done. Grid types a Spec by its cell result, so a result of another
// type — from a worker node or a journal — is an error, not a panic.
//
// Determinism is the package's core contract: each cell derives its own
// RNG seed from the campaign seed and the cell's stable key
// (stats.SplitSeed), never from shared RNG state, worker identity, or
// completion order. Consequently the gathered result is bit-identical
// for every worker count — parallelism changes wall-clock time and
// nothing else — and any future workload (a new DIMM profile, a
// mitigation sweep, the DDR5 outlook) plugs into the same engine as one
// more Spec.
package campaign

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"rhohammer/internal/arch"
	"rhohammer/internal/hammer"
	"rhohammer/internal/pattern"
	"rhohammer/internal/stats"
)

// Kind classifies a campaign by the paper artifact it regenerates.
type Kind uint8

const (
	// KindTable campaigns regenerate a numbered table.
	KindTable Kind = iota
	// KindFigure campaigns regenerate a numbered figure.
	KindFigure
	// KindAux campaigns regenerate supplementary artifacts (ablations,
	// mitigation studies, end-to-end runs).
	KindAux
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTable:
		return "table"
	case KindFigure:
		return "figure"
	case KindAux:
		return "aux"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Budget bounds one cell's workload. Spec builders scale these from the
// experiment configuration; Exec functions read them instead of
// recomputing scaled values, so a cell is fully described by its struct.
type Budget struct {
	// Locations is the number of physical locations swept or regions
	// templated.
	Locations int
	// Patterns is the number of fuzzing candidates tried.
	Patterns int
	// Runs is the number of independent repetitions (Table 5's 50-run
	// accuracy protocol).
	Runs int
	// Probes is the number of measurement samples (latency pairs,
	// timing rounds).
	Probes int
	// Activations is the per-pattern activation budget.
	Activations int
	// DurationNS is the simulated hammering time per location/pattern.
	DurationNS float64
}

// Cell is one independent grid point of a campaign. The declarative
// fields name the platform, module, strategy, pattern and effort; Aux
// carries any experiment-specific remainder (a strategy label, a tool
// name). Cells must not share mutable state: every Exec call builds its
// own hammer.Session (sessions are single-goroutine by contract).
type Cell struct {
	// Key identifies the cell within its Spec. It must be unique and
	// stable across runs: the cell's RNG seed is derived from it, so
	// renaming a cell intentionally changes its random stream.
	Key string
	// Arch is the platform profile, nil when the cell is not
	// platform-specific.
	Arch *arch.Arch
	// DIMM is the memory module profile, nil when not module-specific.
	DIMM *arch.DIMM
	// Config is the hammering strategy; the zero value when the cell
	// does not hammer (e.g. reverse-engineering cells).
	Config hammer.Config
	// Pattern is the access pattern, nil when the cell fuzzes or does
	// not hammer.
	Pattern *pattern.Pattern
	// Budget bounds the cell's workload.
	Budget Budget
	// Aux carries experiment-specific data beyond the declarative
	// fields.
	Aux any
}

// Spec declaratively describes one campaign: a named grid of
// independent cells, how to execute one cell, and how to assemble the
// per-cell results into the final artifact. Grid builds one; a Spec
// literal has no result type, and its raw results are its result.
type Spec struct {
	// Name is the campaign's registry name (e.g. "table6").
	Name string
	// Kind classifies the regenerated artifact.
	Kind Kind
	// Seed is the campaign base seed; per-cell seeds derive from
	// (Seed, Name, Cell.Key) via stats.SplitSeed.
	Seed int64
	// Cells is the grid, in rendering order: the Pool preserves this
	// order in its results regardless of completion order.
	Cells []Cell
	// Exec runs one cell with its derived seed and returns the cell's
	// result. It is called from worker goroutines and must not share
	// mutable state across cells.
	Exec func(c Cell, seed int64) (any, error)

	// check and gather are Grid's; nil for a Spec literal.
	check  func(v any) error
	gather func(results []any) any
}

// ErrResultType is the error CheckResult wraps when a cell result is
// nil or not of its spec's result type.
var ErrResultType = errors.New("campaign: wrong cell result type")

// Grid builds the Spec of a grid whose every cell returns a T, the
// one place the result type is written: exec runs one cell, gather
// assembles the index-ordered results, CheckResult accepts only a T,
// and T (a concrete type) is registered with the wire codec. The
// caller sets Name, Kind and Seed.
func Grid[T any](cells []Cell, exec func(c Cell, seed int64) (T, error), gather func(results []T) any) Spec {
	registerResult[T]()
	return Spec{
		Cells: cells,
		Exec: func(c Cell, seed int64) (any, error) {
			return exec(c, seed)
		},
		check: checkResult[T],
		gather: func(results []any) any {
			typed := make([]T, len(results))
			for i, v := range results {
				typed[i] = v.(T) // AssembleOutcome checked every cell first
			}
			return gather(typed)
		},
	}
}

func checkResult[T any](v any) error {
	if _, ok := v.(T); !ok {
		return fmt.Errorf("%w: %T, want %v", ErrResultType, v, reflect.TypeFor[T]())
	}
	return nil
}

// CheckResult reports whether v is a cell result the spec can gather:
// for a Grid, a value of its result type (nil is none), else an
// ErrResultType error; a Spec literal accepts any value. The serve
// layer applies it to each result a worker posts or a journal holds.
func (s Spec) CheckResult(v any) error {
	if s.check == nil {
		return nil
	}
	return s.check(v)
}

// CellSeed returns the deterministic seed for the cell with the given
// key: a pure function of (Seed, Name, key), independent of worker
// count and scheduling.
func (s Spec) CellSeed(key string) int64 {
	return stats.SplitSeed(s.Seed, s.Name+"/"+key)
}

// Validate reports structural misuse of a Spec — a missing name or
// Exec, empty or duplicate cell keys — before any cell runs. The Pool
// calls it on every run; callers that build Specs from untrusted input
// (the serve layer's inline grids) call it early to turn misuse into a
// client error instead of a failed run.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: spec has no name")
	}
	if s.Exec == nil {
		return fmt.Errorf("campaign %s: spec has no Exec", s.Name)
	}
	seen := make(map[string]struct{}, len(s.Cells))
	for i, c := range s.Cells {
		if c.Key == "" {
			return fmt.Errorf("campaign %s: cell %d has an empty key", s.Name, i)
		}
		if _, dup := seen[c.Key]; dup {
			return fmt.Errorf("campaign %s: duplicate cell key %q", s.Name, c.Key)
		}
		seen[c.Key] = struct{}{}
	}
	return nil
}

// CellStat records how one cell's execution went: its wall time and
// error. The manifest written by cmd/experiments and the -json
// envelope both embed it; Seed makes any single cell replayable in
// isolation.
type CellStat struct {
	// Key is the cell's stable key within its Spec.
	Key string `json:"key"`
	// Seed is the derived per-cell seed (Spec.CellSeed(Key)).
	Seed int64 `json:"seed"`
	// Wall is the cell's execution time.
	Wall time.Duration `json:"wall_ns"`
	// Attempts is 1 when the cell ran and 0 when it never started (its
	// run was cancelled first).
	Attempts int `json:"attempts"`
	// Err is the cell's error, "" on success.
	Err string `json:"error,omitempty"`
}

// Outcome is one campaign execution.
type Outcome struct {
	// Name echoes the Spec.
	Name string
	// Workers is the resolved pool size the run used.
	Workers int
	// Results holds the per-cell results in cell order.
	Results []any
	// Result is the campaign result gathered from Results (Results
	// itself for a Spec literal); nil after a Pool run.
	Result any
	// Cells holds per-cell execution stats, in cell order. Only the
	// Wall field varies with scheduling; Key/Seed/Attempts/Err are
	// deterministic for a run that was not cancelled.
	Cells []CellStat
	// Wall is the campaign's wall-clock duration.
	Wall time.Duration
	// Busy is the summed per-cell wall time; Busy/(Workers*Wall) is the
	// pool's occupancy.
	Busy time.Duration
}

// Occupancy returns the fraction of the pool's capacity that executed
// cells (1.0 = every worker busy for the whole campaign). With
// campaign-sized cells a low value means the grid is too coarse for
// the pool, the signal to shard cells before scaling workers.
func (o *Outcome) Occupancy() float64 {
	if o.Workers <= 0 || o.Wall <= 0 {
		return 0
	}
	return float64(o.Busy) / (float64(o.Workers) * float64(o.Wall))
}
