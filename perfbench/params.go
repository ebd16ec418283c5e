package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// workloadsJSON holds every generator parameter, the pinned digests and,
// for the reader, what each per-layer metric should move. BENCHMARK.json
// has a fixed schema, so the benchmark's own settings live beside its
// code; the metric names and units are read from BENCHMARK.json itself.
//
//go:embed workloads.json
var workloadsJSON []byte

type params struct {
	DefaultSeed int64       `json:"default_seed"`
	Fuzz        fuzzParams  `json:"fuzz"`
	Remap       remapParams `json:"remap"`
	Serve       serveParams `json:"serve"`
}

type fuzzParams struct {
	Archs      []string `json:"archs"`
	Strategies []string `json:"strategies"`
	DIMMs      []struct {
		ID       string `json:"id"`
		Patterns int    `json:"patterns"`
	} `json:"dimms"`
	Locations  int     `json:"locations"`
	DurationNS float64 `json:"duration_ns"`
	// SteadyS is how long the traced run repeats the steady control.
	SteadyS float64  `json:"steady_control_s"`
	Pinned  []string `json:"pinned"`
}

type remapParams struct {
	Archs      []string `json:"archs"`
	Tools      []string `json:"tools"`
	Capacities []struct {
		GiB  int    `json:"gib"`
		DIMM string `json:"dimm"`
	} `json:"capacities"`
	Pinned []string `json:"pinned"`
}

type serveParams struct {
	// Clients sizes the closed loop the end-to-end and per-layer
	// figures come from; it stays within what a server at serverd's
	// defaults holds (Shards + QueueDepth jobs), so no submission is
	// refused. RatePerS is the arrival rate of the open-loop pass of the
	// traced run, about half of the closed-loop capacity workloads.json
	// records beside it; that pass sends at least OpenLoopMinJobs jobs.
	Clients         int     `json:"closed_loop_clients"`
	RatePerS        float64 `json:"rate_per_s"`
	OpenLoopMinJobs int     `json:"open_loop_min_jobs"`
	LatencyLimitMS  float64 `json:"latency_limit_ms"`
	PollMS          float64 `json:"client_poll_ms"`
	Mix             []struct {
		Kind  string  `json:"kind"`
		Share float64 `json:"share"`
	} `json:"mix"`
	Specs []struct {
		Name  string  `json:"name"`
		Scale float64 `json:"scale"`
	} `json:"specs"`
	Inline struct {
		Archs      []string `json:"archs"`
		DIMMs      []string `json:"dimms"`
		MaxCells   int      `json:"max_cells"`
		Patterns   int      `json:"patterns"`
		DurationNS float64  `json:"duration_ns"`
	} `json:"inline"`
	Replay struct {
		DIMMs  []string `json:"dimms"`
		Events int      `json:"events"`
	} `json:"replay"`
	Restarts int      `json:"restarts"`
	Pinned   []string `json:"pinned"`
}

func loadParams() (*params, error) {
	var p params
	if err := json.Unmarshal(workloadsJSON, &p); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &p, nil
}

// metricDef is one metric BENCHMARK.json names.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricDefs are the metric lists of BENCHMARK.json: every untraced
// run reports each end-to-end metric, every traced run each per-layer
// metric that still exists.
type metricDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadMetricDefs(path string) (*metricDefs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m metricDefs
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no end-to-end or no per-layer metric", path)
	}
	return &m, nil
}
