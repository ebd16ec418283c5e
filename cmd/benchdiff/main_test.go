package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnapshot writes a minimal cmd/bench snapshot to dir/name and
// returns its path.
func writeSnapshot(t *testing.T, dir, name string, numCPU int, benches ...Benchmark) string {
	t.Helper()
	data, err := json.Marshal(Report{Date: "2026-01-01", NumCPU: numCPU, Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compare runs benchdiff on two snapshots and returns its exit code,
// stdout and stderr.
func compare(t *testing.T, oldCPU, newCPU int, oldB, newB []Benchmark) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	oldPath := writeSnapshot(t, dir, "BENCH_a.json", oldCPU, oldB...)
	newPath := writeSnapshot(t, dir, "BENCH_b.json", newCPU, newB...)
	var stdout, stderr strings.Builder
	code := run([]string{"-old", oldPath, "-new", newPath}, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestEqualCoreCountsCompare(t *testing.T) {
	b := []Benchmark{bench("BenchmarkActivate", 100, 0)}
	code, out, errOut := compare(t, 4, 4, b, b)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "num_cpu 4") || !strings.Contains(out, "BenchmarkActivate") {
		t.Errorf("report does not show the core count and the benchmark:\n%s", out)
	}
}

func TestDifferentCoreCountsRefused(t *testing.T) {
	b := []Benchmark{bench("BenchmarkActivate", 100, 0)}
	code, out, errOut := compare(t, 1, 8, b, b)
	if code == 0 {
		t.Fatalf("snapshots from 1 and 8 cores compared with exit 0:\n%s", out)
	}
	for _, want := range []string{"BENCH_a.json has num_cpu 1", "BENCH_b.json has num_cpu 8"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut)
		}
	}
	if out != "" {
		t.Errorf("refused comparison still printed a report:\n%s", out)
	}
}

// TestVerdicts covers the gate on pinned benchmarks (ns/op beyond the
// 10% bound, any real allocs/op increase, a pinned benchmark dropped)
// and the entries it reports without gating.
func TestVerdicts(t *testing.T) {
	const pinned, other = "BenchmarkMappingRecovery", "BenchmarkFig3Threshold"
	for _, c := range []struct {
		name     string
		old, new []Benchmark
		code     int
		verdict  string
	}{
		{"within bound", []Benchmark{bench(pinned, 100, 10)}, []Benchmark{bench(pinned, 108, 10)}, 0, "ok"},
		{"faster", []Benchmark{bench(pinned, 100, 10)}, []Benchmark{bench(pinned, 50, 10)}, 0, "ok (50.0% faster)"},
		{"ns/op regression", []Benchmark{bench(pinned, 100, 10)}, []Benchmark{bench(pinned, 125, 10)}, 1, "FAIL ns/op +25.0%"},
		{"allocs from zero", []Benchmark{bench(pinned, 100, 0)}, []Benchmark{bench(pinned, 100, 1)}, 1, "FAIL allocs/op 0 -> 1"},
		{"allocs within slack", []Benchmark{bench(pinned, 100, 10000)}, []Benchmark{bench(pinned, 100, 10005)}, 0, "ok"},
		{"allocs beyond slack", []Benchmark{bench(pinned, 100, 10000)}, []Benchmark{bench(pinned, 100, 10020)}, 1, "FAIL allocs/op 10000 -> 10020"},
		{"unpinned regression", []Benchmark{bench(other, 100, 0)}, []Benchmark{bench(other, 300, 9)}, 0, "unpinned"},
		{"new benchmark", []Benchmark{bench(pinned, 100, 0)}, []Benchmark{bench(pinned, 100, 0), bench(other, 5, 0)}, 0, "new"},
		{"pinned dropped", []Benchmark{bench(pinned, 100, 0), bench(other, 5, 0)}, []Benchmark{bench(other, 5, 0)}, 1, "pinned benchmark missing from new snapshot: FAIL"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := compare(t, 1, 1, c.old, c.new)
			if code != c.code {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, out, errOut)
			}
			if !strings.Contains(out, c.verdict) {
				t.Errorf("report missing verdict %q:\n%s", c.verdict, out)
			}
		})
	}
}

// TestNewestPair checks the default comparison picks the two lexically
// newest snapshots, with a tagged file after the untagged one of its
// date.
func TestNewestPair(t *testing.T) {
	dir := t.TempDir()
	b := bench("BenchmarkActivate", 100, 0)
	writeSnapshot(t, dir, "BENCH_2026-01-01.json", 1, b)
	writeSnapshot(t, dir, "BENCH_2026-01-02.json", 2, b)
	writeSnapshot(t, dir, "BENCH_2026-01-02_tag.json", 2, b)
	var stdout, stderr strings.Builder
	if code := run([]string{"-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "BENCH_2026-01-02.json") || !strings.Contains(stdout.String(), "BENCH_2026-01-02_tag.json") {
		t.Errorf("did not compare the two newest snapshots:\n%s", stdout.String())
	}
}
