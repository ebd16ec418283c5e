// Command benchdiff is the benchmark regression gate: it compares the
// two newest BENCH_<date>.json snapshots (as written by cmd/bench) and
// fails when a pinned steady-state benchmark regressed — more than 10%
// on ns/op, or on allocs/op (any real increase; a 0.1% relative slack
// absorbs one-time setup allocations amortized over differing
// iteration counts, so a 0-alloc loop gaining a single allocation
// still fails).
//
// Only the pinned micro-benchmarks participate in the gate: they are
// re-measured at a multi-second -benchtime, so their numbers are
// stable enough to diff. The campaign-sized entries run once each and
// are reported for context but never fail the gate.
//
// Two snapshots taken on hosts with different core counts (num_cpu)
// are not comparable, so benchdiff refuses them and exits non-zero,
// naming both counts.
//
// Usage:
//
//	go run ./cmd/benchdiff                    # two newest BENCH_*.json in .
//	go run ./cmd/benchdiff -old A.json -new B.json
//	go run ./cmd/benchdiff -report benchdiff-report.txt
//
// Snapshot files sort chronologically by name (BENCH_2026-08-08.json;
// an optional tag like BENCH_2026-08-08_payload.json sorts after the
// untagged file of the same date), so "two newest" is the lexical tail
// of the glob.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Benchmark mirrors the cmd/bench entry fields the gate reads.
type Benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Benchtime   string  `json:"benchtime"`
}

// Report mirrors the cmd/bench top-level document.
type Report struct {
	Date       string      `json:"date"`
	GitRev     string      `json:"git_rev"`
	NumCPU     int         `json:"num_cpu"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// defaultPins matches cmd/bench's -micro set: the hot-path benchmarks
// measured long enough to be diffable.
const defaultPins = "BenchmarkHammerThroughput|BenchmarkHammerPatternSteadyState|BenchmarkActivate|BenchmarkMappingRecovery"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, compares the
// snapshots, prints the report to stdout and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory holding BENCH_*.json snapshots")
	oldPath := fs.String("old", "", "baseline snapshot (default: second-newest in -dir)")
	newPath := fs.String("new", "", "candidate snapshot (default: newest in -dir)")
	pins := fs.String("pin", defaultPins,
		"regexp of steady-state benchmarks the gate applies to")
	maxNs := fs.Float64("max-ns-regress", 0.10,
		"maximum tolerated fractional ns/op regression on pinned benchmarks")
	allocSlack := fs.Float64("alloc-slack", 0.001,
		"fractional allocs/op jitter tolerated (one-time setup amortized over differing iteration counts); 0->N always fails")
	reportPath := fs.String("report", "", "also write the comparison report to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}

	if (*oldPath == "") != (*newPath == "") {
		return fail(fmt.Errorf("-old and -new must be given together"))
	}
	if *oldPath == "" {
		var err error
		*oldPath, *newPath, err = newestPair(*dir)
		if err != nil {
			return fail(err)
		}
	}
	pinRe, err := regexp.Compile(*pins)
	if err != nil {
		return fail(fmt.Errorf("bad -pin regexp: %w", err))
	}

	oldRep, err := load(*oldPath)
	if err != nil {
		return fail(err)
	}
	newRep, err := load(*newPath)
	if err != nil {
		return fail(err)
	}
	if oldRep.NumCPU != newRep.NumCPU {
		return fail(fmt.Errorf("refusing to compare snapshots from different core counts: %s has num_cpu %d, %s has num_cpu %d",
			filepath.Base(*oldPath), oldRep.NumCPU, filepath.Base(*newPath), newRep.NumCPU))
	}

	var b strings.Builder
	failures := diff(&b, oldRep, newRep, *oldPath, *newPath, pinRe, *maxNs, *allocSlack)

	fmt.Fprint(stdout, b.String())
	if *reportPath != "" {
		if err := os.WriteFile(*reportPath, []byte(b.String()), 0o644); err != nil {
			return fail(err)
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d pinned benchmark(s) regressed\n", failures)
		return 1
	}
	return 0
}

// newestPair returns the two lexically-last BENCH_*.json files in dir
// (second-newest first).
func newestPair(dir string) (oldPath, newPath string, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", "", err
	}
	if len(paths) < 2 {
		return "", "", fmt.Errorf("need at least two BENCH_*.json snapshots in %s, found %d", dir, len(paths))
	}
	sort.Strings(paths)
	return paths[len(paths)-2], paths[len(paths)-1], nil
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	return &r, nil
}

// diff writes the comparison report and returns the number of gate
// failures among pinned benchmarks.
func diff(w io.Writer, oldRep, newRep *Report, oldPath, newPath string, pin *regexp.Regexp, maxNs, allocSlack float64) int {
	fmt.Fprintf(w, "benchdiff: %s (%s) -> %s (%s), num_cpu %d\n",
		filepath.Base(oldPath), rev(oldRep), filepath.Base(newPath), rev(newRep), newRep.NumCPU)
	fmt.Fprintf(w, "gate: pinned ns/op regression > %.0f%% or any allocs/op regression fails\n\n", maxNs*100)

	oldBy := map[string]Benchmark{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}

	failures := 0
	fmt.Fprintf(w, "%-44s %14s %14s %8s %10s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "allocs", "verdict")
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14.0f %8s %10.0f  new\n", nb.Name, "-", nb.NsPerOp, "-", nb.AllocsPerOp)
			continue
		}
		delta := 0.0
		if ob.NsPerOp > 0 {
			delta = nb.NsPerOp/ob.NsPerOp - 1
		}
		pinned := pin.MatchString(nb.Name)
		verdict := "ok"
		switch {
		case !pinned:
			verdict = "unpinned"
		case delta > maxNs:
			verdict = fmt.Sprintf("FAIL ns/op +%.1f%%", delta*100)
			failures++
		case nb.AllocsPerOp > ob.AllocsPerOp*(1+allocSlack):
			verdict = fmt.Sprintf("FAIL allocs/op %.0f -> %.0f", ob.AllocsPerOp, nb.AllocsPerOp)
			failures++
		case delta < -0.05:
			verdict = fmt.Sprintf("ok (%.1f%% faster)", -delta*100)
		}
		allocs := fmt.Sprintf("%.0f->%.0f", ob.AllocsPerOp, nb.AllocsPerOp)
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %+7.1f%% %10s  %s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, delta*100, allocs, verdict)
	}
	for _, ob := range oldRep.Benchmarks {
		found := false
		for _, nb := range newRep.Benchmarks {
			if nb.Name == ob.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(w, "%-44s %14.0f %14s  (dropped)\n", ob.Name, ob.NsPerOp, "-")
			if pin.MatchString(ob.Name) {
				fmt.Fprintf(w, "%-44s pinned benchmark missing from new snapshot: FAIL\n", "")
				failures++
			}
		}
	}
	return failures
}

func rev(r *Report) string {
	if r.GitRev == "" {
		return r.Date
	}
	if len(r.GitRev) > 8 {
		return r.Date + "@" + r.GitRev[:8]
	}
	return r.Date + "@" + r.GitRev
}
