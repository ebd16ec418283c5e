package campaign_test

import (
	"context"
	"fmt"
	"strings"

	"rhohammer/internal/campaign"
)

// Example builds a small grid and runs it at two pool sizes,
// demonstrating the package contract: each cell's seed derives from
// the campaign seed and the cell's stable key, so the gathered result
// is bit-identical for every worker count.
func Example() {
	spec := campaign.Grid(
		[]campaign.Cell{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}},
		func(c campaign.Cell, seed int64) (string, error) {
			// Stand-in for a simulation: any pure function of the
			// derived cell seed.
			return fmt.Sprintf("%s#%d", c.Key, seed&0xff), nil
		},
		func(results []string) any { return strings.Join(results, " ") },
	)
	spec.Name, spec.Kind, spec.Seed = "demo", campaign.KindAux, 7

	serial, err := campaign.Run(context.Background(), spec, 1, campaign.RunOpts{})
	if err != nil {
		panic(err)
	}
	pooled, err := campaign.Run(context.Background(), spec, 8, campaign.RunOpts{})
	if err != nil {
		panic(err)
	}
	fmt.Println(serial.Result == pooled.Result)
	fmt.Println(len(serial.Cells), "cells, attempts:", serial.Cells[0].Attempts)
	// Output:
	// true
	// 4 cells, attempts: 1
}

// ExamplePool shares one worker set across several campaigns: cells —
// not jobs — are the scheduling unit, so a small grid never waits
// behind a large one, and the result is still bit-identical to a
// one-worker run because each cell's seed derives from its stable key.
// A pool run may be one part of a campaign, so it does not gather;
// AssembleOutcome gathers the full grid.
func ExamplePool() {
	spec := campaign.Grid(
		[]campaign.Cell{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}},
		func(c campaign.Cell, seed int64) (string, error) {
			return fmt.Sprintf("%s#%d", c.Key, seed&0xff), nil
		},
		func(results []string) any { return strings.Join(results, " ") },
	)
	spec.Name, spec.Kind, spec.Seed = "demo", campaign.KindAux, 7

	pool := campaign.NewPool(8)
	defer pool.Close()

	pooled, err := pool.Run(spec, campaign.RunOpts{})
	if err != nil {
		panic(err)
	}
	gathered, err := campaign.AssembleOutcome(spec, pooled.Workers, pooled.Wall, pooled.Results, pooled.Cells)
	if err != nil {
		panic(err)
	}
	serial, err := campaign.Run(context.Background(), spec, 1, campaign.RunOpts{})
	if err != nil {
		panic(err)
	}
	fmt.Println(gathered.Result == serial.Result)
	fmt.Println(pooled.Workers, "pool workers,", len(pooled.Cells), "cells")
	// Output:
	// true
	// 8 pool workers, 4 cells
}

// ExampleRegistry names specs and lists them in the stable sorted
// order every user-facing listing (cmd/experiments -list, the serve
// layer's /v1/specs) reports.
func ExampleRegistry() {
	reg := campaign.NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		reg.Register(campaign.Entry{
			Name: name, Kind: campaign.KindAux, Title: strings.ToUpper(name),
			Build: func(p campaign.Params) campaign.Spec {
				return campaign.Spec{
					Name: name, Seed: p.Seed,
					Cells: []campaign.Cell{{Key: "only"}},
					Exec:  func(c campaign.Cell, seed int64) (any, error) { return nil, nil },
				}
			},
		})
	}
	for _, e := range reg.SortedEntries() {
		fmt.Println(e.Name, "—", e.Title)
	}
	// Output:
	// alpha — ALPHA
	// mid — MID
	// zeta — ZETA
}
