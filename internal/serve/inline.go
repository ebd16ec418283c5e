package serve

import (
	"fmt"
	"os"
	"path/filepath"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/cpu"
	"rhohammer/internal/experiments"
	"rhohammer/internal/hammer"
)

// InlineSpec is an ad-hoc campaign grid submitted directly in the POST
// body, for jobs the registry does not name: every cell runs a fuzzing
// campaign (hammer.Session.Fuzz) on its own platform/module pair under
// its own strategy and budget. Like registered specs, the grid is
// deterministic in (seed, cell key) — resubmitting the same inline
// body with the same seed reproduces the same bytes.
type InlineSpec struct {
	// Name identifies the job in envelopes and manifests. Required.
	Name string `json:"name"`
	// Cells is the grid. Required, non-empty, keys unique.
	Cells []InlineCell `json:"cells"`
}

// InlineCell is one inline grid point.
type InlineCell struct {
	// Key is the cell's stable identity; the cell seed derives from it.
	Key string `json:"key"`
	// Arch names a platform profile (arch.ByName, e.g. "Raptor Lake").
	Arch string `json:"arch"`
	// DIMM names a module profile (arch.DIMMByID, e.g. "S3").
	DIMM string `json:"dimm"`
	// Config is the hammering strategy.
	Config InlineConfig `json:"config"`
	// Budget bounds the fuzzing campaign; zero fields take the
	// evaluation defaults (hammer.FuzzOptions).
	Budget InlineBudget `json:"budget"`
}

// InlineConfig mirrors hammer.Config with wire-friendly enum strings.
type InlineConfig struct {
	// Instr is "load", "prefetcht0", "prefetcht1", "prefetcht2" or
	// "prefetchnta".
	Instr string `json:"instr"`
	// Banks is the bank parallelism (>= 1; default 1).
	Banks int `json:"banks,omitempty"`
	// Barrier is "none", "nop", "lfence", "mfence" or "cpuid".
	Barrier string `json:"barrier,omitempty"`
	// Nops is the NOP count for the "nop" barrier.
	Nops int `json:"nops,omitempty"`
	// Obfuscate enables control-flow obfuscation (§4.4).
	Obfuscate bool `json:"obfuscate,omitempty"`
	// SyncRefresh aligns the hammer loop with the next REF.
	SyncRefresh bool `json:"sync_refresh,omitempty"`
}

// InlineBudget mirrors the fuzzing fields of campaign.Budget.
type InlineBudget struct {
	// Patterns is the number of fuzzing candidates tried.
	Patterns int `json:"patterns,omitempty"`
	// Locations is the number of trial locations per pattern.
	Locations int `json:"locations,omitempty"`
	// DurationNS is the simulated hammering time per trial.
	DurationNS float64 `json:"duration_ns,omitempty"`
}

// instrs and barriers map the wire strings onto the hammer enums.
var instrs = map[string]hammer.Instr{
	"load":        hammer.InstrLoad,
	"prefetcht0":  hammer.InstrPrefetchT0,
	"prefetcht1":  hammer.InstrPrefetchT1,
	"prefetcht2":  hammer.InstrPrefetchT2,
	"prefetchnta": hammer.InstrPrefetchNTA,
}

var barriers = map[string]hammer.Barrier{
	"":       hammer.BarrierNone,
	"none":   hammer.BarrierNone,
	"nop":    hammer.BarrierNop,
	"lfence": hammer.BarrierLFence,
	"mfence": hammer.BarrierMFence,
	"cpuid":  hammer.BarrierCPUID,
}

// build materializes the inline grid as a campaign Spec. Errors are
// client errors (400): unknown profiles, bad enum strings, structural
// misuse.
func (in *InlineSpec) build(seed int64) (campaign.Spec, error) {
	if in.Name == "" {
		return campaign.Spec{}, fmt.Errorf("inline spec has no name")
	}
	cells := make([]campaign.Cell, len(in.Cells))
	for i, ic := range in.Cells {
		a, ok := arch.ByName(ic.Arch)
		if !ok {
			return campaign.Spec{}, fmt.Errorf("inline cell %q: unknown arch %q", ic.Key, ic.Arch)
		}
		d, ok := arch.DIMMByID(ic.DIMM)
		if !ok {
			return campaign.Spec{}, fmt.Errorf("inline cell %q: unknown dimm %q", ic.Key, ic.DIMM)
		}
		instr, ok := instrs[ic.Config.Instr]
		if !ok {
			return campaign.Spec{}, fmt.Errorf("inline cell %q: unknown instr %q", ic.Key, ic.Config.Instr)
		}
		barrier, ok := barriers[ic.Config.Barrier]
		if !ok {
			return campaign.Spec{}, fmt.Errorf("inline cell %q: unknown barrier %q", ic.Key, ic.Config.Barrier)
		}
		banks := ic.Config.Banks
		if banks < 1 {
			banks = 1
		}
		cells[i] = campaign.Cell{
			Key:  ic.Key,
			Arch: a,
			DIMM: d,
			Config: hammer.Config{
				Instr: instr, Style: cpu.StyleCPP, Banks: banks,
				Barrier: barrier, Nops: ic.Config.Nops,
				Obfuscate: ic.Config.Obfuscate, SyncRefresh: ic.Config.SyncRefresh,
			},
			Budget: campaign.Budget{
				Patterns:   ic.Budget.Patterns,
				Locations:  ic.Budget.Locations,
				DurationNS: ic.Budget.DurationNS,
			},
		}
	}
	spec := campaign.Spec{
		Name:  "inline/" + in.Name,
		Kind:  campaign.KindAux,
		Seed:  seed,
		Cells: cells,
		Exec: func(c campaign.Cell, seed int64) (any, error) {
			return experiments.FuzzCell(c, seed)
		},
	}
	return spec, spec.Validate()
}

// writeManifestFile persists one job manifest under dir.
func writeManifestFile(dir, jobID string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, jobID+".json"), data, 0o644)
}
