// Package obs is the simulator's observability layer: process-global
// atomic counters and gauges, a bounded structured event trace, and the
// run-manifest types that make every rendered table and figure
// reproducible from its recorded inputs alone.
//
// The layer exists to open the black box the ROADMAP's serving goal
// cannot tolerate: a campaign that hammers for minutes must expose how
// many activations, refreshes, TRR triggers and flips the substrate
// processed, how well the hot caches performed (memctrl decode cache,
// hammer payload memo), and how the campaign workers spent their time.
// HammerSim-style simulators live or die by this attribution, and the
// same counters back perfbench's per-layer rows.
//
// Design contract — observation must be free when off and inert when on:
//
//   - Nothing in this package ever touches an RNG stream, so enabling
//     metrics or tracing cannot perturb simulation results; the golden
//     hashes in internal/experiments pin this.
//   - The disabled path costs at most a nil-pointer or atomic-bool
//     check in the hot layers and allocates nothing (the PR 1 benchmark
//     contract of 0 steady-state allocs/op is preserved).
//   - Counters are snapshotted — by cmd/experiments (-metrics), by
//     serverd's /metrics, by perfbench and into run manifests — in a
//     Prometheus-style text format, never scraped mid-flight from hot
//     structs.
//
// The three faces map to the files of this package: counters/gauges
// (obs.go), the per-session JSONL event trace (trace.go), and the run
// manifest (manifest.go).
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates the cold-boundary counter flushes in the hot layers
// (hammer pattern completion, campaign cell completion). A single
// atomic load on the disabled path.
var enabled atomic.Bool

// SetEnabled turns global counter aggregation on or off.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether counter aggregation is on.
func Enabled() bool { return enabled.Load() }

// Counter is a named, monotonically increasing atomic counter. The zero
// value is unusable; obtain counters from a Registry.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// AddUint increments the counter by a uint64 delta (the hot layers
// keep their internal counters unsigned).
func (c *Counter) AddUint(n uint64) { c.v.Add(int64(n)) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// reset zeroes the counter (Registry.Reset only).
func (c *Counter) reset() { c.v.Store(0) }

// Metric is one snapshotted (name, value) pair.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Registry holds named counters and gauges. Counter lookups after
// registration are lock-free (callers hold *Counter); Snapshot takes
// the registry lock once.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]func() int64{},
	}
}

// Default is the process-global registry the standard counters below
// live in; cmd/experiments, serverd and perfbench snapshot it.
var Default = NewRegistry()

// Counter returns the registry's counter with the given name, creating
// it on first use. Safe for concurrent callers.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge registers a polled gauge: fn is evaluated at snapshot time.
// Re-registering a name replaces the previous function.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Snapshot returns every counter and gauge value, sorted by name.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Value: c.Load()})
	}
	for name, fn := range r.gauges {
		out = append(out, Metric{Name: name, Value: fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Values returns the snapshot as a map, for JSON embedding (run
// manifests, perfbench reports).
func (r *Registry) Values() map[string]int64 {
	snap := r.Snapshot()
	out := make(map[string]int64, len(snap))
	for _, m := range snap {
		out[m.Name] = m.Value
	}
	return out
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format (counters as TYPE counter, gauges as TYPE gauge).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	gaugeNames := make(map[string]bool, len(r.gauges))
	for name := range r.gauges {
		gaugeNames[name] = true
	}
	r.mu.Unlock()
	for _, m := range r.Snapshot() {
		kind := "counter"
		if gaugeNames[m.Name] {
			kind = "gauge"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m.Name, kind, m.Name, m.Value); err != nil {
			return err
		}
	}
	return nil
}

// Reset zeroes every counter (gauges poll live state and are
// unaffected). Used by tests and by per-run scoping in the commands.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
}

// Standard counters. The hot layers flush their plain internal counters
// into these at cold boundaries: the dram/memctrl deltas at every
// hammered pattern (internal/hammer), the campaign figures at every
// cell completion (internal/campaign). Names follow the Prometheus
// convention of a rhohammer_ prefix and a _total suffix.
var (
	DramACTs     = Default.Counter("rhohammer_dram_activations_total")
	DramREFs     = Default.Counter("rhohammer_dram_refreshes_total")
	DramTRR      = Default.Counter("rhohammer_dram_trr_triggers_total")
	DramFlips    = Default.Counter("rhohammer_dram_flips_total")
	DramRFM      = Default.Counter("rhohammer_dram_rfm_events_total")
	DramRowSwaps = Default.Counter("rhohammer_dram_rowswap_relocations_total")

	CtrlAccesses   = Default.Counter("rhohammer_memctrl_accesses_total")
	CtrlRowHits    = Default.Counter("rhohammer_memctrl_row_hits_total")
	CtrlConflicts  = Default.Counter("rhohammer_memctrl_row_conflicts_total")
	CtrlDecodeHits = Default.Counter("rhohammer_memctrl_decode_hits_total")
	CtrlDecodeMiss = Default.Counter("rhohammer_memctrl_decode_misses_total")

	HammerPatterns = Default.Counter("rhohammer_hammer_patterns_total")
	HammerTunes    = Default.Counter("rhohammer_hammer_tune_runs_total")

	// Compiled-payload path (internal/cpu payload executor): schedule
	// compilations, calls that re-ran a session's memoized payload, and
	// activation batches handed to the DRAM device.
	HammerPayloadCompiles = Default.Counter("rhohammer_hammer_payload_compile_total")
	HammerPayloadHits     = Default.Counter("rhohammer_hammer_payload_cache_hit_total")
	HammerPayloadBatches  = Default.Counter("rhohammer_hammer_payload_exec_batch_total")

	// Program builds and reuses. The session lowers a pattern exactly
	// when it compiles a payload, so these count the same calls as the
	// two payload counters above; they stay registered because the
	// repo benchmark derives hammer.program_cache_hit_ratio from them.
	HammerProgBuilds = Default.Counter("rhohammer_hammer_program_builds_total")
	HammerProgHits   = Default.Counter("rhohammer_hammer_program_cache_hits_total")

	// Chain pipeline (internal/chain engine): end-to-end attack runs,
	// per-phase work items and simulated time. Flushed once per
	// Engine.Run at the cold end of the pipeline.
	ChainRuns          = Default.Counter("rhohammer_chain_runs_total")
	ChainRegions       = Default.Counter("rhohammer_chain_regions_total")
	ChainTemplateFlips = Default.Counter("rhohammer_chain_template_flips_total")
	ChainTargets       = Default.Counter("rhohammer_chain_targets_total")
	ChainAttempts      = Default.Counter("rhohammer_chain_attempts_total")
	ChainSuccesses     = Default.Counter("rhohammer_chain_successes_total")
	ChainAllocNS       = Default.Counter("rhohammer_chain_alloc_ns_total")
	ChainTemplateNS    = Default.Counter("rhohammer_chain_template_ns_total")
	ChainVictimNS      = Default.Counter("rhohammer_chain_victim_ns_total")

	CampaignCells    = Default.Counter("rhohammer_campaign_cells_total")
	CampaignFailures = Default.Counter("rhohammer_campaign_cell_failures_total")
	CampaignBusyNS   = Default.Counter("rhohammer_campaign_busy_ns_total")
	CampaignWallNS   = Default.Counter("rhohammer_campaign_wall_ns_total")

	// Distributed fabric (serve coordinator): lease grants/renewals/
	// completions and deadline-based reclaims of expired leases.
	LeaseGrants      = Default.Counter("rhohammer_lease_grants_total")
	LeaseRenewals    = Default.Counter("rhohammer_lease_renewals_total")
	LeaseCompletions = Default.Counter("rhohammer_lease_completions_total")
	LeaseReclaims    = Default.Counter("rhohammer_lease_reclaims_total")
	LeaseCellsLeased = Default.Counter("rhohammer_lease_cells_leased_total")
)
