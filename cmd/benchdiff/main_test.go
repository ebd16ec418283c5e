package main

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// line renders one `go test -bench` result line for benchmark name.
func line(name string, ns, allocs float64) string {
	return fmt.Sprintf("%s-2   \t     100\t  %.0f ns/op\t     512 B/op\t  %.0f allocs/op", name, ns, allocs)
}

// fakeRun serves out[side][round] as pins[0]'s output (nothing for the
// other pins, as for a package absent on that side) and records the
// side of every call in calls.
func fakeRun(out [2][]string, calls *[]int) runFunc {
	var n [2]int
	return func(side, i int) (string, error) {
		*calls = append(*calls, side)
		if i != 0 {
			return "", nil
		}
		r := n[side]
		n[side]++
		return "goos: linux\npkg: rhohammer\n" + out[side][r%len(out[side])] + "\nPASS\n", nil
	}
}

// compare runs the gate over canned output and returns its failure
// count and report.
func compare(t *testing.T, baseOut, headOut []string) (int, string) {
	t.Helper()
	var calls []int
	var report, progress strings.Builder
	failures, err := gate(fakeRun([2][]string{baseOut, headOut}, &calls), "HEAD^ (0123abcd)", &report, &progress)
	if err != nil {
		t.Fatal(err)
	}
	return failures, report.String()
}

// every repeats one round's output for all rounds.
func every(lines ...string) []string {
	return []string{strings.Join(lines, "\n")}
}

// TestVerdicts covers the gate's rules on steady medians: ns/op beyond
// the 10% bound, any real allocs/op increase, a benchmark dropped at
// head, and one new at head.
func TestVerdicts(t *testing.T) {
	const pinned, other = "BenchmarkMappingRecovery", "BenchmarkActivate"
	for _, c := range []struct {
		name       string
		base, head []string
		failures   int
		verdict    string
	}{
		{"within bound", every(line(pinned, 100, 10)), every(line(pinned, 108, 10)), 0, "ok"},
		{"faster", every(line(pinned, 100, 10)), every(line(pinned, 50, 10)), 0, "ok (50.0% faster)"},
		{"ns/op regression", every(line(pinned, 100, 10)), every(line(pinned, 125, 10)), 1, "FAIL ns/op +25.0%"},
		{"allocs from zero", every(line(pinned, 100, 0)), every(line(pinned, 100, 1)), 1, "FAIL allocs/op 0 -> 1"},
		{"allocs within slack", every(line(pinned, 100, 10000)), every(line(pinned, 100, 10005)), 0, "ok"},
		{"allocs beyond slack", every(line(pinned, 100, 10000)), every(line(pinned, 100, 10020)), 1, "FAIL allocs/op 10000 -> 10020"},
		{"new benchmark", every(line(pinned, 100, 0)), every(line(pinned, 100, 0), line(other, 5, 0)), 0, "new"},
		{"pinned dropped", every(line(pinned, 100, 0), line(other, 5, 0)), every(line(other, 5, 0)), 1, "FAIL missing at head"},
		// One outlier round in five moves neither median: a slow head
		// round does not fail a flat benchmark, and a fast one does
		// not pass a regressed one.
		{"slow outlier round",
			every(line(pinned, 100, 0)),
			[]string{line(pinned, 101, 0), line(pinned, 300, 0), line(pinned, 99, 0), line(pinned, 102, 0), line(pinned, 100, 0)},
			0, "ok"},
		{"fast outlier round",
			every(line(pinned, 100, 0)),
			[]string{line(pinned, 120, 0), line(pinned, 40, 0), line(pinned, 121, 0), line(pinned, 119, 0), line(pinned, 120, 0)},
			1, "FAIL ns/op +20.0%"},
	} {
		t.Run(c.name, func(t *testing.T) {
			failures, out := compare(t, c.base, c.head)
			if failures != c.failures {
				t.Errorf("%d failures, want %d\n%s", failures, c.failures, out)
			}
			if !strings.Contains(out, c.verdict) {
				t.Errorf("report missing verdict %q:\n%s", c.verdict, out)
			}
		})
	}
}

// TestReportShowsBothMedians checks every benchmark line carries the
// base and head medians, and the header the host's core count that
// both sides ran at.
func TestReportShowsBothMedians(t *testing.T) {
	base := []string{line("BenchmarkActivate", 30, 0), line("BenchmarkActivate", 31, 0), line("BenchmarkActivate", 29, 0)}
	head := []string{line("BenchmarkActivate", 28, 0), line("BenchmarkActivate", 27, 0), line("BenchmarkActivate", 26, 0)}
	failures, out := compare(t, base, head)
	if failures != 0 {
		t.Fatalf("%d failures:\n%s", failures, out)
	}
	for _, want := range []string{
		fmt.Sprintf("num_cpu %d", runtime.NumCPU()),
		"BenchmarkActivate                                      30.0           27.0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestCustomUnitsIgnored checks b.ReportMetric units parse and stay out
// of the verdict: only ns/op and allocs/op are judged.
func TestCustomUnitsIgnored(t *testing.T) {
	for _, c := range []struct {
		line   string
		name   string
		ns     float64
		allocs float64
	}{
		{"BenchmarkActivateBatch-2   \t  870375\t      1566 ns/op\t         9.054 ns/ACT\t       0 B/op\t       0 allocs/op", "BenchmarkActivateBatch", 1566, 0},
		{"BenchmarkReplayJournal-2   \t     168\t   6792296 ns/op\t         7.327 µs/record\t 2811880 B/op\t   15585 allocs/op", "BenchmarkReplayJournal", 6792296, 15585},
		{"BenchmarkHammerThroughput-2           \t      43\t  34738833 ns/op\t    777797 ACTs/op\t    7933 B/op\t      12 allocs/op", "BenchmarkHammerThroughput", 34738833, 12},
		{"BenchmarkPoolEmptyCells/workers=8-2         \t    9190\t    118394 ns/op\t       462.5 ns/cell\t   43457 B/op\t      10 allocs/op", "BenchmarkPoolEmptyCells/workers=8", 118394, 10},
		{"BenchmarkActivate   \t42131700\t        28.62 ns/op", "BenchmarkActivate", 28.62, 0},
	} {
		name, ns, allocs, ok := parseLine(c.line)
		if !ok || name != c.name || ns != c.ns || allocs != c.allocs {
			t.Errorf("parseLine(%q) = %q, %v, %v, %v; want %q, %v, %v, true", c.line, name, ns, allocs, ok, c.name, c.ns, c.allocs)
		}
	}
	for _, l := range []string{"goos: linux", "PASS", "--- FAIL: BenchmarkX", "BenchmarkX-2 \t fail"} {
		if _, _, _, ok := parseLine(l); ok {
			t.Errorf("parseLine(%q) accepted a non-result line", l)
		}
	}

	base := "BenchmarkFreshPatternCell-2 \t 32 \t 46216831 ns/op \t 51.16 ns/ACT \t 105110 B/op \t 70 allocs/op"
	head := "BenchmarkFreshPatternCell-2 \t 30 \t 46216831 ns/op \t 99.99 ns/ACT \t 905110 B/op \t 70 allocs/op"
	if failures, out := compare(t, every(base), every(head)); failures != 0 || !strings.Contains(out, " ok") {
		t.Errorf("a custom unit moved the verdict (%d failures):\n%s", failures, out)
	}
}

// TestRoundsAlternate checks the run order with a fake runner: within
// every round each pin runs on both sides back to back, base first in
// even rounds and head first in odd ones.
func TestRoundsAlternate(t *testing.T) {
	var calls []int
	out := every(line("BenchmarkActivate", 30, 0))
	var report, progress strings.Builder
	if _, err := gate(fakeRun([2][]string{out, out}, &calls), "HEAD", &report, &progress); err != nil {
		t.Fatal(err)
	}
	if want := rounds * 2 * len(pins); len(calls) != want {
		t.Fatalf("%d runs, want %d", len(calls), want)
	}
	for k, side := range calls {
		r := k / (2 * len(pins))
		want := r % 2 // base (0) first in even rounds, head (1) in odd
		if k%2 == 1 {
			want = 1 - want
		}
		if side != want {
			t.Fatalf("run %d (round %d) on %s, want %s; calls %v", k, r, sideNames[side], sideNames[want], calls)
		}
	}
	if got := strings.Count(progress.String(), "BenchmarkActivate"); got != 2*rounds {
		t.Errorf("progress logs %d measurements, want %d:\n%s", got, 2*rounds, progress.String())
	}
}
