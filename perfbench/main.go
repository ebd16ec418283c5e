// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload, generated from a seed, through the public entry
// points of each layer, checks the simulated outputs, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as the last line of standard output:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {"sim_acts_per_s": {"value": 9.1e6, "unit": "ACT/s"}, ...}}
//
// Workloads (parameters in workloads.json, reasons in README.md):
//
//   - fuzz: Table 6's grid shape (4 platforms x BL-S, BL-M, rho-S,
//     rho-M x 3 DIMMs) as one campaign.Spec on a campaign.Pool,
//     repeated at fresh campaign seeds until the time is up.
//   - remap: batches of mapping recoveries (Algorithm 1, DRAMA,
//     DRAMDig, DARE) over 8, 16 and 32 GiB modules.
//   - serve: jobs against an in-process coordinator with a durable
//     store and in-process workers, over loopback HTTP, from a fixed
//     number of closed-loop clients.
//
// Usage, from the repository root (run.py builds this package first;
// metric names and units are read from BENCHMARK.json there):
//
//	python3 perfbench/run.py --workload fuzz --seed 1 --seconds 30 --trace 0
//	python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 1
//
// --trace 1 runs the workload twice at the same seed and load, untraced
// and then with spans on, each for half of --seconds (serve: a quarter
// each, and the other half goes to an open-loop Poisson pass whose job
// latency, miss ratio and generator lateness are reported alongside).
// It requires the runs to produce the same digests, prints a layer
// report (self time by <module>.<call>, ns per ACT against the steady
// control, cache and placement shares) and reports every per-layer
// metric plus the tracing overhead. Spans and the report land in --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts is what every workload receives.
type runOpts struct {
	seed    int64
	seconds float64
	out     string // output directory for spans, reports, digest records and temporary stores
	params  *params
	metrics *metricDefs
	// openLoop drives serve with the open-loop Poisson schedule instead
	// of closed-loop clients (the extra pass of a traced serve run).
	openLoop bool
	// baseline is an earlier record whose nproc this run is compared to.
	baseline string
}

// pass is one timed run of a workload: the end-to-end figures, the
// digests of its deterministic units, and (when traced) its spans and
// layer counts.
type pass struct {
	attempted, failed int
	// units holds one digest per deterministic unit of work (a grid, a
	// recovery batch, a served job), in order.
	units []string
	// errs lists every correctness failure found while running.
	errs []string
	e2e  map[string]float64
	// layer holds the per-layer metrics this pass measured.
	layer map[string]float64
	// counts are simulated counts that must repeat exactly between two
	// passes over the same units.
	counts map[string]float64
	// cost is host time per unit of work, compared between the traced
	// and untraced pass to give the tracing overhead.
	cost float64
	// wall is the pass's measured host time; workers x wall is the
	// worker time self-time shares are taken of.
	wall float64
	// missing names per-layer metrics whose counter the program no
	// longer has: they are reported absent, not zero.
	missing map[string]bool
	tr      *tracer
	// notes are workload-specific report lines (host record extras).
	notes map[string]any
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layer: map[string]float64{}, counts: map[string]float64{},
		notes: map[string]any{}, missing: map[string]bool{}}
}

func (p *pass) absent(names ...string) {
	for _, n := range names {
		p.missing[n] = true
	}
}

func (p *pass) fail(format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runOpts, *tracer) (*pass, error){
	"fuzz":  runFuzz,
	"remap": runRemap,
	"serve": runServe,
}

func main() {
	p, err := loadParams()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	name := flag.String("workload", "", "workload to run: fuzz, remap or serve")
	seed := flag.Int64("seed", p.DefaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run: untraced and traced passes, per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for spans, reports, digest records and temporary stores")
	bench := flag.String("benchmark", "BENCHMARK.json", "file naming the metrics to report, with their units")
	baseline := flag.String("baseline", "", "host record (record line of an earlier result) to compare nproc against")
	flag.Parse()

	o := runOpts{seed: *seed, seconds: *seconds, out: *out, params: p, baseline: *baseline}
	if err := run(*name, *bench, *trace == 1, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints the record line and the result
// line.
func run(name, bench string, traced bool, o runOpts) error {
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	m, err := loadMetricDefs(bench)
	if err != nil {
		return err
	}
	o.metrics = m
	res, report, err := execute(name, o, traced)
	if err != nil {
		return err
	}
	data, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n", data)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// execute runs the workload (traced: an untraced and a traced pass, and
// for serve the open-loop pass), checks its outputs and returns the
// result and the record.
func execute(name string, o runOpts, traced bool) (result, map[string]any, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	fn, ok := workloads[name]
	if !ok {
		return res, nil, fmt.Errorf("unknown workload %q (fuzz, remap or serve)", name)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return res, nil, err
	}
	host := hostRecord(name, o.seed, o.out, o.baseline)
	if host.fsRefused != "" {
		return res, nil, fmt.Errorf("output directory %s is on %s: fsync is free there, so the serve store would not be measured", o.out, host.fsRefused)
	}

	var report map[string]any
	var errs []string
	if !traced {
		pa, err := fn(o, nil)
		if err != nil {
			return res, nil, err
		}
		res.Attempted, res.Failed = pa.attempted, pa.failed
		checkDigests(name, o, pa, "untraced")
		for _, m := range o.metrics.EndToEnd {
			v, ok := pa.e2e[m.Name]
			if !ok {
				pa.fail("end-to-end metric %s not measured", m.Name)
				continue
			}
			res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		}
		errs = pa.errs
		report = map[string]any{"units": len(pa.units), "notes": pa.notes}
	} else {
		// Both passes run the same load; serve gives half of the time to
		// an extra open-loop pass.
		total := o.seconds
		o.seconds = total / 2
		if name == "serve" {
			o.seconds = total / 4
		}
		plain, err := fn(o, nil)
		if err != nil {
			return res, nil, err
		}
		tracedPass, err := fn(o, newTracer())
		if err != nil {
			return res, nil, err
		}
		passes := []*pass{plain, tracedPass}
		checkDigests(name, o, plain, "untraced")
		checkDigests(name, o, tracedPass, "traced")
		compareUnits(tracedPass, plain)
		compareCounts(tracedPass, plain)
		var open *pass
		if name == "serve" {
			oo := o
			oo.openLoop, oo.seconds = true, total/2
			if open, err = runServe(oo, nil); err != nil {
				return res, nil, err
			}
			checkDigests(name, o, open, "open_loop")
			passes = append(passes, open)
		}
		report = layerReport(name, o, plain, tracedPass, open)
		for _, m := range o.metrics.PerLayer {
			if v, ok := tracedPass.layer[m.Name]; ok { // absent: the counter is gone
				res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
			}
		}
		for _, pa := range passes {
			res.Attempted += pa.attempted
			res.Failed += pa.failed
			errs = append(errs, pa.errs...)
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			errs = append(errs, fmt.Sprintf("metric %s is %v", k, m.Value))
			m.Value = 0
			res.Metrics[k] = m
		}
	}
	if res.Attempted < 1 {
		return res, nil, fmt.Errorf("workload %s attempted no operation", name)
	}
	res.Correct = len(errs) == 0
	report["errors"] = errs
	report["host"] = host
	report["correct"] = res.Correct
	return res, report, nil
}

// since returns seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
