// Command benchdiff is the benchmark regression gate, and it measures
// the code it gates. Given -base REV, it builds each pinned package's
// test binary twice — once in a temporary checkout of REV, once in
// the working tree — then runs the two sides alternately on this host
// for a fixed number of rounds. Each round runs every pinned benchmark
// on both sides back to back, swapping which side goes first each
// round. The report gives both sides' medians, and the rules are:
//
//   - head's ns/op more than 10% above base's fails, judged on the
//     median over rounds of the per-round head/base ratio: the two
//     runs of a round share the host's speed of the moment, so swings
//     in host speed between rounds cancel;
//   - a median allocs/op above base beyond a 0.1% slack fails (the
//     slack absorbs the ±1 jitter of runtime allocations in counts
//     like 15585, so a 0-alloc loop gaining one allocation still
//     fails);
//   - a benchmark present at base but missing from the working tree
//     fails;
//   - a benchmark new in the working tree reports "new".
//
// Every pinned benchmark runs a fixed iteration count, so both sides
// do the same simulated work: with a time-based benchtime the counts
// differ, and so does allocs/op wherever the work per iteration does.
// The pin list, the counts, the rounds and the thresholds are
// constants, not flags. EXPERIMENTS.md ("Benchmark regression gate")
// records the false-alarm rate of these settings (the working tree
// against itself) and the deliberate regressions they catch.
//
// Usage:
//
//	go run ./cmd/benchdiff -base HEAD^
//	go run ./cmd/benchdiff -base main -report benchdiff-report.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// pin is one gated benchmark (with its sub-benchmarks): its package
// directory relative to the module root, the -test.bench regexp
// selecting it, and the iterations each run measures.
type pin struct {
	pkg, bench string
	n          int
}

// pins are the gated benchmarks: the root hot-path micro benchmarks
// and one steady-state benchmark per layer below them. Each count
// takes 0.2–0.5 s per run on a shared 2-vCPU x86-64 host.
var pins = []pin{
	{".", "^BenchmarkHammerThroughput$", 6},
	{".", "^BenchmarkHammerPatternSteadyState$", 24},
	{".", "^BenchmarkActivate$", 20_000_000},
	{".", "^BenchmarkMappingRecovery$", 3},
	{"internal/dram", "^BenchmarkActivateBatch$", 200_000},
	{"internal/memctrl", "^BenchmarkAccess$", 5_000_000},
	{"internal/hammer", "^BenchmarkFreshPatternCell$", 6},
	{"internal/campaign", "^BenchmarkPoolEmptyCells$", 2000},
	{"internal/mem", "^BenchmarkNewPool$", 3},
	{"internal/store", "^BenchmarkReplayJournal$", 30},
	{"internal/serve", "^BenchmarkServeSubmit$/^submit_to_result$", 2000},
	{"internal/serve", "^BenchmarkServeSubmit$/^cache_hit$", 10_000},
}

const (
	// rounds is the number of alternating base/head passes; odd, so
	// each median is one measured round.
	rounds = 41
	// maxNsRegress is the tolerated fractional rise of ns/op in the
	// median round.
	maxNsRegress = 0.10
	// allocSlack is the tolerated fractional rise of median allocs/op.
	allocSlack = 0.001
)

// The two sides of a comparison.
const (
	base = iota
	head
)

var sideNames = [2]string{"base", "head"}

// runFunc runs pins[i] once on one side and returns the test binary's
// output; an empty output means the package is absent on that side.
type runFunc func(side, i int) (string, error)

// series is one benchmark's per-round measurements on one side.
type series struct {
	ns, allocs []float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, builds and
// runs both sides, prints the report to stdout and returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseRev := fs.String("base", "", "git revision the working tree is compared against (required)")
	reportPath := fs.String("report", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *baseRev == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: benchdiff -base REV [-report FILE]")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}

	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return fail(err)
	}
	sha, err := git(root, "rev-parse", "--verify", *baseRev+"^{commit}")
	if err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp("", "benchdiff-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	sides := [2]tree{
		{root: filepath.Join(tmp, "base"), bins: filepath.Join(tmp, "base-bin")},
		{root: root, bins: filepath.Join(tmp, "head-bin")},
	}
	if err := checkout(root, sha, sides[base].root); err != nil {
		return fail(err)
	}
	for s := range sides {
		if err := sides[s].build(stderr); err != nil {
			return fail(fmt.Errorf("%s: %w", sideNames[s], err))
		}
	}

	var b strings.Builder
	label := fmt.Sprintf("%s (%.8s)", *baseRev, sha)
	failures, err := gate(func(s, i int) (string, error) { return sides[s].run(i) }, label, &b, stderr)
	if err != nil {
		return fail(err)
	}
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

// gate measures both sides through run, writes the report to w (with
// per-round progress to progress) and returns the number of failed
// benchmarks.
func gate(run runFunc, baseLabel string, w, progress io.Writer) (int, error) {
	got, err := measure(run, progress)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "benchdiff: base %s vs working tree; %d alternating rounds, num_cpu %d\n",
		baseLabel, rounds, runtime.NumCPU())
	fmt.Fprintf(w, "gate: delta (median per-round head/base ns/op) > +%.0f%%, median allocs/op above base, or a benchmark missing at head fails\n\n",
		maxNsRegress*100)
	return judge(w, got), nil
}

// measure runs every pin on both sides for rounds rounds, logging each
// measurement to progress. Within a round each pin runs on both sides
// back to back, base first in even rounds and head first in odd ones.
func measure(run runFunc, progress io.Writer) ([2]map[string]*series, error) {
	got := [2]map[string]*series{{}, {}}
	for r := 0; r < rounds; r++ {
		order := [2]int{base, head}
		if r%2 == 1 {
			order = [2]int{head, base}
		}
		for i, p := range pins {
			prefix := ""
			if p.pkg != "." {
				prefix = filepath.Base(p.pkg) + "."
			}
			for _, s := range order {
				out, err := run(s, i)
				if err != nil {
					return got, fmt.Errorf("%s %s: %w", sideNames[s], p.pkg, err)
				}
				for _, line := range strings.Split(out, "\n") {
					name, ns, allocs, ok := parseLine(line)
					if !ok {
						continue
					}
					name = prefix + name
					sr := got[s][name]
					if sr == nil {
						sr = &series{}
						got[s][name] = sr
					}
					sr.ns = append(sr.ns, ns)
					sr.allocs = append(sr.allocs, allocs)
					fmt.Fprintf(progress, "round %d/%d %-4s %-40s %14.1f ns/op %8.0f allocs/op\n",
						r+1, rounds, sideNames[s], name, ns, allocs)
				}
			}
		}
	}
	return got, nil
}

// judge writes one report line per benchmark seen on either side and
// returns the number of failures.
func judge(w io.Writer, got [2]map[string]*series) int {
	var names []string
	for s := range got {
		for name := range got[s] {
			if s == head || got[head][name] == nil {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)

	failures := 0
	fmt.Fprintf(w, "%-44s %14s %14s %8s %12s  %s\n",
		"benchmark", "base ns/op", "head ns/op", "delta", "allocs/op", "verdict")
	for _, name := range names {
		b, h := got[base][name], got[head][name]
		switch {
		case h == nil:
			fmt.Fprintf(w, "%-44s %14.1f %14s %8s %12s  FAIL missing at head\n",
				name, median(b.ns), "-", "-", "-")
			failures++
			continue
		case b == nil:
			fmt.Fprintf(w, "%-44s %14s %14.1f %8s %12.0f  new\n",
				name, "-", median(h.ns), "-", median(h.allocs))
			continue
		}
		ratios := make([]float64, min(len(b.ns), len(h.ns)))
		for r := range ratios {
			ratios[r] = h.ns[r] / b.ns[r]
		}
		delta := median(ratios) - 1
		ba, ha := median(b.allocs), median(h.allocs)
		verdict := "ok"
		switch {
		case delta > maxNsRegress:
			verdict = fmt.Sprintf("FAIL ns/op +%.1f%%", delta*100)
			failures++
		case ha > ba*(1+allocSlack):
			verdict = fmt.Sprintf("FAIL allocs/op %.0f -> %.0f", ba, ha)
			failures++
		case delta < -0.05:
			verdict = fmt.Sprintf("ok (%.1f%% faster)", -delta*100)
		}
		fmt.Fprintf(w, "%-44s %14.1f %14.1f %+7.1f%% %12s  %s\n",
			name, median(b.ns), median(h.ns), delta*100, fmt.Sprintf("%.0f->%.0f", ba, ha), verdict)
	}
	return failures
}

// median returns the middle of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parseLine decodes one `go test -bench` result line such as
//
//	BenchmarkReplayJournal-2  168  6792296 ns/op  7.327 µs/record  2811880 B/op  15585 allocs/op
//
// into the benchmark name (without its -GOMAXPROCS suffix), ns/op and
// allocs/op. Custom units are read past and ignored; ok is false for
// any other line.
func parseLine(line string) (name string, ns, allocs float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, 0, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", 0, 0, false
	}
	name = fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, 0, false
		}
		switch fields[i+1] {
		case "ns/op":
			ns, seenNs = v, true
		case "allocs/op":
			allocs = v
		}
	}
	return name, ns, allocs, seenNs
}

// tree is one side's source tree and the directory its test binaries
// are built into.
type tree struct {
	root, bins string
}

// bin is the path of pkg's test binary.
func (t tree) bin(pkg string) string {
	return filepath.Join(t.bins, pkg, "pkg.test")
}

// build compiles every pinned package's test binary once, skipping
// packages absent from this tree (their benchmarks then report as new
// or missing).
func (t tree) build(log io.Writer) error {
	for _, p := range pins {
		if _, err := os.Stat(filepath.Join(t.root, p.pkg)); err != nil {
			continue
		}
		if _, err := os.Stat(t.bin(p.pkg)); err == nil {
			continue
		}
		// -trimpath keeps the checkout's directory out of the binary,
		// so identical sources build identical binaries.
		cmd := exec.Command("go", "test", "-c", "-trimpath", "-o", t.bin(p.pkg), "./"+p.pkg)
		cmd.Dir = t.root
		cmd.Stdout, cmd.Stderr = log, log
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s: %w", p.pkg, err)
		}
	}
	return nil
}

// run executes pins[i]'s benchmark once from the package directory,
// as go test would.
func (t tree) run(i int) (string, error) {
	bin := t.bin(pins[i].pkg)
	if _, err := os.Stat(bin); err != nil {
		return "", nil
	}
	cmd := exec.Command(bin, "-test.run=^$", "-test.bench="+pins[i].bench, "-test.benchmem",
		fmt.Sprintf("-test.benchtime=%dx", pins[i].n), "-test.timeout=5m")
	cmd.Dir = filepath.Join(t.root, pins[i].pkg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%w\n%s", err, out)
	}
	return string(out), nil
}

// checkout extracts commit sha of the repository at root into dir.
func checkout(root, sha, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tarball := dir + ".tar"
	if _, err := git(root, "archive", "--format=tar", "-o", tarball, sha); err != nil {
		return err
	}
	defer os.Remove(tarball)
	if out, err := exec.Command("tar", "-xf", tarball, "-C", dir).CombinedOutput(); err != nil {
		return fmt.Errorf("tar: %w: %s", err, out)
	}
	return nil
}

// git runs a git command in dir and returns its trimmed stdout.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
