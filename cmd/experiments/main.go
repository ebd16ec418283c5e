// Command experiments regenerates the paper's tables and figures on the
// simulated substrate, driven by the campaign registry.
//
// Usage:
//
//	experiments -list
//	experiments [-seed N] [-scale X] [-parallel W] all
//	experiments [-seed N] [-scale X] [-parallel W] table1 fig9 ...
//	experiments [-seed N] [-scale X] -only table6
//
// Scale 1 is the fast default; larger values approach the paper's
// budgets (table6 at scale 1 takes a couple of minutes). -parallel
// bounds the campaign worker pool; every experiment's bytes are
// identical for any worker count — parallelism only changes wall-clock
// time. -json emits the canonical envelope (per-cell stats with wall
// times zeroed), the exact bytes serverd's result endpoint serves; see
// API.md. How the run executed — its workers, wall time and per-cell
// wall times — goes to -manifest.
//
// Observability (see ARCHITECTURE.md):
//
//	-manifest out.json   write a run manifest (git rev, seed, flags,
//	                     workers, per-cell timings and seeds, counter
//	                     snapshot); any artifact is reproducible from
//	                     it alone
//	-metrics out.txt     write a Prometheus-style counter snapshot
//	                     ("-" for stdout)
//	-trace out.jsonl     record structured substrate events per session
//	                     (also enabled via RHOHAMMER_TRACE=out.jsonl)
//	-trace-cap N         per-session event-ring bound
//	-cpuprofile / -memprofile write pprof profiles of the run
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rhohammer/internal/campaign"
	"rhohammer/internal/experiments"
	"rhohammer/internal/hammer"
	"rhohammer/internal/obs"
)

func main() {
	seed := flag.Int64("seed", 42, "random seed (results are deterministic in the seed)")
	scale := flag.Float64("scale", 1, "workload scale; >1 approaches the paper's budgets")
	parallel := flag.Int("parallel", 0, "campaign worker pool size; 0 means GOMAXPROCS (results are identical for every value)")
	only := flag.String("only", "", "run exactly one named experiment")
	list := flag.Bool("list", false, "list registered experiments and exit")
	asJSON := flag.Bool("json", false, "emit the canonical JSON envelope (per-cell stats, wall times zeroed; the bytes serverd serves) instead of text")
	simcheck := flag.Bool("simcheck", false, "audit every simulated session against the slow reference model (order-of-magnitude slower; panics on divergence)")
	manifestPath := flag.String("manifest", "", "write a run manifest (JSON) to this path")
	metricsPath := flag.String("metrics", "", "write a Prometheus-style counter snapshot to this path (\"-\" for stdout)")
	tracePath := flag.String("trace", os.Getenv(obs.TraceEnv), "record structured substrate events to this JSONL path (default $RHOHAMMER_TRACE)")
	traceCap := flag.Int("trace-cap", obs.DefaultTraceCap, "per-session event ring capacity for -trace")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this path")
	flag.Parse()

	if *simcheck {
		// Sessions are created deep inside the experiment code; the env
		// gate is how the audit reaches them without threading a flag
		// through every constructor.
		os.Setenv(hammer.SimcheckEnv, "1")
	}
	if *tracePath != "" {
		// Same depth problem, same solution: arming obs.Traces
		// makes every session record into its own seed-keyed ring.
		obs.EnableTracing(*traceCap)
	}
	if *metricsPath != "" || *manifestPath != "" {
		obs.SetEnabled(true)
	}

	names := experiments.Registry.Names()

	if *list {
		// Lexical order, not registration order: listings must be stable
		// however the registry is assembled (GET /v1/specs shares this
		// contract; TestListSortedOrder pins it).
		for _, e := range experiments.Registry.SortedEntries() {
			fmt.Printf("%-18s %-7s %s\n", e.Name, e.Kind, e.Title)
		}
		return
	}

	args := flag.Args()
	if *only != "" {
		if len(args) > 0 {
			fmt.Fprintln(os.Stderr, "-only cannot be combined with positional experiment names")
			os.Exit(2)
		}
		args = []string{*only}
	}
	if len(args) == 0 {
		usage(names)
		os.Exit(2)
	}
	cfg := experiments.Config{Seed: *seed, Scale: *scale, Workers: *parallel}

	selected := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, n := range names {
				selected[n] = true
			}
			continue
		}
		if _, ok := experiments.Registry.Lookup(a); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
			usage(names)
			os.Exit(2)
		}
		selected[a] = true
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	manifest := obs.NewManifest("experiments", os.Args[1:])
	manifest.Date = time.Now().UTC().Format(time.RFC3339)
	manifest.Seed, manifest.Scale, manifest.Workers = *seed, *scale, *parallel
	if manifest.GitRev == "" {
		manifest.GitRev = gitRevFallback()
	}

	// Registration order is rendering order, matching the paper's
	// narrative.
	exitCode := 0
	for _, name := range names {
		if !selected[name] {
			continue
		}
		start := time.Now()
		res, out, err := experiments.RunOutcome(name, cfg)
		manifest.Runs = append(manifest.Runs, runRecord(name, out, err))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exitCode = 1
			continue
		}
		if *asJSON {
			if err := experiments.WriteEnvelope(os.Stdout, name, cfg, out); err != nil {
				fatal(err)
			}
			continue
		}
		res.Render(os.Stdout)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if *manifestPath != "" {
		manifest.Counters = obs.Default.Values()
		if err := manifest.WriteFile(*manifestPath); err != nil {
			fatal(err)
		}
	}
	if *metricsPath != "" {
		w := os.Stdout
		var f *os.File
		if *metricsPath != "-" {
			var err error
			if f, err = os.Create(*metricsPath); err != nil {
				fatal(err)
			}
			w = f
		}
		if err := obs.Default.WritePrometheus(w); err != nil {
			fatal(err)
		}
		if f != nil {
			f.Close()
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := obs.Traces.WriteJSONL(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	os.Exit(exitCode)
}

// runRecord converts one campaign outcome into its manifest record.
func runRecord(name string, out *campaign.Outcome, err error) obs.RunRecord {
	rec := obs.RunRecord{Name: name}
	if err != nil {
		rec.Err = err.Error()
	}
	if out == nil {
		return rec
	}
	rec.WallNS = int64(out.Wall)
	rec.Workers = out.Workers
	for _, c := range out.Cells {
		rec.Cells = append(rec.Cells, obs.CellRecord{
			Key: c.Key, Seed: c.Seed, WallNS: int64(c.Wall),
			Attempts: c.Attempts, Err: c.Err,
		})
	}
	return rec
}

func usage(names []string) {
	fmt.Fprintf(os.Stderr, "usage: experiments [-seed N] [-scale X] [-parallel W] [-json] [-manifest M] [-metrics P] [-trace T] <experiment...|all>\n")
	fmt.Fprintf(os.Stderr, "       experiments -only <experiment>\n")
	fmt.Fprintf(os.Stderr, "       experiments -list\nexperiments:")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, " %s", n)
	}
	fmt.Fprintln(os.Stderr)
}

// gitRevFallback shells out to git when the binary carries no build
// info (e.g. `go run` on a toolchain that stamps no VCS data).
func gitRevFallback() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
