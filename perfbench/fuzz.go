package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"rhohammer"
	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/hammer"
	"rhohammer/internal/obs"
	"rhohammer/internal/stats"
)

// fuzzCell is one cell's outcome as the benchmark sees it.
type fuzzCell struct {
	report hammer.FuzzReport
	acts   uint64
	// setupS is the cell's set-up: host time from its start until
	// Session.Fuzz begins, which is hammer.NewSession.
	setupS   float64
	fuzzNS   float64
	strategy string
}

// strategyConfig builds Table 6's four columns from the hammer
// package's public constructors.
func strategyConfig(label string, a *arch.Arch) (hammer.Config, error) {
	switch label {
	case "BL-S":
		return hammer.Baseline(), nil
	case "BL-M":
		c := hammer.Baseline()
		c.Banks = hammer.OptimalBanks(a)
		return c, nil
	case "rho-S":
		return hammer.RecommendedSingleBank(a), nil
	case "rho-M":
		return hammer.Recommended(a), nil
	}
	return hammer.Config{}, fmt.Errorf("unknown strategy %q", label)
}

// fuzzGrid builds the workload's cells in rendering order.
func fuzzGrid(fp fuzzParams) ([]campaign.Cell, error) {
	var cells []campaign.Cell
	for _, an := range fp.Archs {
		a, ok := arch.ByName(an)
		if !ok {
			return nil, fmt.Errorf("fuzz: unknown arch %q", an)
		}
		for _, dp := range fp.DIMMs {
			d, ok := arch.DIMMByID(dp.ID)
			if !ok {
				return nil, fmt.Errorf("fuzz: unknown DIMM %q", dp.ID)
			}
			for _, st := range fp.Strategies {
				cfg, err := strategyConfig(st, a)
				if err != nil {
					return nil, err
				}
				cells = append(cells, campaign.Cell{
					Key:  a.Name + "/" + d.ID + "/" + st,
					Arch: a, DIMM: d, Config: cfg, Aux: st,
					Budget: campaign.Budget{Patterns: dp.Patterns, Locations: fp.Locations, DurationNS: fp.DurationNS},
				})
			}
		}
	}
	return cells, nil
}

// obsDelta returns after[name]-before[name]; ok is false when the
// counter no longer exists.
func obsDelta(before, after map[string]int64, name string) (float64, bool) {
	a, ok := after[name]
	if !ok {
		return 0, false
	}
	return float64(a - before[name]), true
}

// Counter names in obs.Default, read by name so a counter a later
// change deletes is reported absent rather than zero.
const (
	cDramACTs      = "rhohammer_dram_activations_total"
	cDramREFs      = "rhohammer_dram_refreshes_total"
	cDramTRR       = "rhohammer_dram_trr_triggers_total"
	cDramFlips     = "rhohammer_dram_flips_total"
	cCtrlAccesses  = "rhohammer_memctrl_accesses_total"
	cCtrlRowHits   = "rhohammer_memctrl_row_hits_total"
	cCtrlDecHits   = "rhohammer_memctrl_decode_hits_total"
	cCtrlDecMiss   = "rhohammer_memctrl_decode_misses_total"
	cProgHits      = "rhohammer_hammer_program_cache_hits_total"
	cProgBuilds    = "rhohammer_hammer_program_builds_total"
	cPayloadHits   = "rhohammer_hammer_payload_cache_hit_total"
	cPayloadBuilds = "rhohammer_hammer_payload_compile_total"
	cPayloadBatch  = "rhohammer_hammer_payload_exec_batch_total"
)

// obsRatios derives per-layer metrics from obs deltas: each metric is
// num ÷ (den + num when addNum) over the named counters, and reported
// absent when a counter is gone.
var obsRatios = []struct {
	name, num, den string
	addNum         bool
}{
	{"memctrl.decode_miss_ratio", cCtrlDecMiss, cCtrlDecHits, true},
	{"memctrl.row_hit_ratio", cCtrlRowHits, cCtrlAccesses, false},
	{"cpu.acts_per_batch", cDramACTs, cPayloadBatch, false},
	{"hammer.program_cache_hit_ratio", cProgHits, cProgBuilds, true},
	{"hammer.payload_cache_hit_ratio", cPayloadHits, cPayloadBuilds, true},
}

// obsCounts are the per-layer counts read straight from obs deltas;
// the simulated ones must repeat exactly.
var obsCounts = map[string]string{
	"dram.acts": cDramACTs, "dram.refreshes": cDramREFs, "dram.trr_triggers": cDramTRR,
	"dram.flips": cDramFlips, "memctrl.accesses": cCtrlAccesses, "cpu.payload_compiles": cPayloadBuilds,
}

// obsLayer records the obs-derived per-layer metrics of one interval;
// with repeat set, the counts also join the counts that must repeat.
func obsLayer(p *pass, before, after map[string]int64, repeat bool) {
	for name, c := range obsCounts {
		v, ok := obsDelta(before, after, c)
		if !ok {
			p.absent(name)
			continue
		}
		p.layer[name] = v
		if repeat {
			p.counts[name] = v
		}
	}
	for _, r := range obsRatios {
		num, ok1 := obsDelta(before, after, r.num)
		den, ok2 := obsDelta(before, after, r.den)
		if !ok1 || !ok2 {
			p.absent(r.name)
			continue
		}
		if r.addNum {
			den += num
		}
		p.layer[r.name] = ratio(num, den)
	}
}

func runFuzz(o runOpts, tr *tracer) (*pass, error) {
	fp := o.params.Fuzz
	p := newPass()
	obs.SetEnabled(true) // as serverd and cmd/experiments -metrics run it
	workers := runtime.NumCPU()

	var (
		acts, wall         float64
		cellMS, setups     []float64
		occupancy          []float64
		strategyNS, stActs = map[string]float64{}, map[string]float64{}
	)
	mem := startMem()
	start := time.Now()
	for rep := 0; rep == 0 || since(start) < o.seconds; rep++ {
		before := obs.Default.Values()
		cells, err := fuzzGrid(fp)
		if err != nil {
			return nil, err
		}
		spec := campaign.Spec{
			Name:  "perfbench-fuzz",
			Seed:  stats.SplitSeed(o.seed, fmt.Sprintf("perfbench/fuzz/%d", rep)),
			Cells: cells,
			Exec: func(c campaign.Cell, seed int64) (any, error) {
				return fuzzExec(tr, fmt.Sprintf("grid%d/%s", rep, c.Key), c, seed)
			},
		}
		pool := campaign.NewPool(workers)
		out, runErr := pool.Run(spec, campaign.RunOpts{})
		pool.Close()
		after := obs.Default.Values()
		if out == nil {
			return nil, fmt.Errorf("fuzz: %v", runErr)
		}
		wall += out.Wall.Seconds()
		occupancy = append(occupancy, out.Occupancy())

		var unit []byte
		for i, st := range out.Cells {
			p.attempted++
			cellMS = append(cellMS, float64(st.Wall)/1e6)
			if st.Err != "" {
				p.failed++
				p.fail("fuzz grid %d cell %s: %s", rep, st.Key, st.Err)
				continue
			}
			fc := out.Results[i].(fuzzCell)
			setups = append(setups, fc.setupS)
			acts += float64(fc.acts)
			strategyNS[fc.strategy] += fc.fuzzNS
			stActs[fc.strategy] += float64(fc.acts)
			b, err := fuzzReportBytes(st.Key, fc.report)
			if err != nil {
				return nil, err
			}
			unit = append(unit, b...)
		}
		p.units = append(p.units, digestOf(unit))
		if rep == 0 {
			obsLayer(p, before, after, true)
		}
	}
	p.e2e["sim_acts_per_s"] = ratio(acts, wall)
	p.e2e["ops_per_s"] = ratio(float64(p.attempted), wall)
	p.e2e["op_p50_ms"] = quantile(cellMS, 0.5)
	p.e2e["op_p90_ms"] = quantile(cellMS, 0.9)
	p.e2e["setup_s"] = median(setups)
	p.e2e["peak_rss_mb"] = peakRSSMB()
	p.cost = ratio(wall*1e9, acts)
	p.wall = wall
	p.notes["grids"] = len(p.units)
	p.notes["cells"] = p.attempted

	if tr != nil {
		mem.stop(p.layer)
		p.layer["campaign.occupancy"] = median(occupancy)
		p.layer["campaign.cell_ms"] = median(cellMS)
		for label, ns := range strategyNS {
			p.layer["hammer.ns_per_act."+strings.ReplaceAll(strings.ToLower(label), "-", "_")] = ratio(ns, stActs[label])
		}
		steady, err := steadyNSPerACT(fp.SteadyS)
		if err != nil {
			return nil, err
		}
		p.layer["hammer.ns_per_act.steady"] = steady
		p.tr = tr
	}
	return p, nil
}

// fuzzExec is one cell: a fresh session fuzzing fresh patterns.
func fuzzExec(tr *tracer, op string, c campaign.Cell, seed int64) (any, error) {
	start := time.Now()
	cell := tr.begin("campaign.cell", op, nil)
	defer cell.end()
	sp := tr.begin("hammer.session_new", op, cell)
	s, err := hammer.NewSession(c.Arch, c.DIMM, seed)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("hammer.fuzz", op, cell)
	t := time.Now()
	rep, err := s.Fuzz(c.Config, hammer.FuzzOptions{
		Patterns: c.Budget.Patterns, Locations: c.Budget.Locations, DurationNS: c.Budget.DurationNS,
	})
	ns := float64(time.Since(t).Nanoseconds())
	sp.end()
	if err != nil {
		return nil, err
	}
	// Ctrl.Stats spans the whole session; Session.Counters().Dram is
	// reset by every ResetDevice inside Fuzz.
	return fuzzCell{report: rep, acts: s.Ctrl.Stats().ACTs(), setupS: t.Sub(start).Seconds(), fuzzNS: ns, strategy: c.Aux.(string)}, nil
}

// fuzzReportBytes is a cell's canonical output for the digest.
func fuzzReportBytes(key string, r hammer.FuzzReport) ([]byte, error) {
	var best json.RawMessage
	if r.Best.Pattern != nil {
		b, err := json.Marshal(r.Best.Pattern)
		if err != nil {
			return nil, err
		}
		best = b
	}
	return json.Marshal(struct {
		Key                             string
		TotalFlips, Effective, Tried, B int
		Best                            json.RawMessage
	}{key, r.TotalFlips, r.Effective, r.Tried, r.Best.Flips, best})
}

// steadyNSPerACT is the same-host control: one warm pattern hammered
// repeatedly, the BenchmarkHammerThroughput shape.
func steadyNSPerACT(seconds float64) (float64, error) {
	atk, err := rhohammer.NewAttack(rhohammer.Options{Arch: rhohammer.RaptorLake(), Seed: 1})
	if err != nil {
		return 0, err
	}
	cfg := atk.RecommendedConfig()
	pat := rhohammer.KnownGood()
	if _, err := atk.Hammer(pat, cfg, 0, 4096, 20e6); err != nil { // warm-up
		return 0, err
	}
	var acts uint64
	start := time.Now()
	for acts == 0 || since(start) < seconds {
		res, err := atk.Hammer(pat, cfg, 0, 4096, 20e6)
		if err != nil {
			return 0, err
		}
		acts += res.ACTs
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(acts)), nil
}
