package campaign

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rhohammer/internal/stats"
)

// syntheticSpec builds an RNG-dependent grid: each cell draws from its
// derived seed, so any seed-derivation or ordering bug shows up as a
// result mismatch across worker counts.
func syntheticSpec(seed int64, cells int) Spec {
	s := Spec{Name: "synthetic", Kind: KindAux, Seed: seed}
	for i := 0; i < cells; i++ {
		s.Cells = append(s.Cells, Cell{Key: fmt.Sprintf("cell/%d", i)})
	}
	s.Exec = func(c Cell, seed int64) (any, error) {
		r := stats.NewRand(seed)
		sum := 0.0
		for i := 0; i < 1000; i++ {
			sum += r.Float64()
		}
		return [2]any{c.Key, sum}, nil
	}
	s.Gather = func(results []any) any {
		out := make([]any, len(results))
		copy(out, results)
		return out
	}
	return s
}

// serialReference is the determinism oracle the schedulers are held
// to: the spec's cells executed in order on the calling goroutine with
// their derived seeds, no pool involved.
func serialReference(t *testing.T, s Spec) (results []any, result any) {
	t.Helper()
	results = make([]any, len(s.Cells))
	for i, c := range s.Cells {
		r, err := s.Exec(c, s.CellSeed(c.Key))
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	return results, s.Gather(results)
}

// run calls the one-shot runner, Run, with no context or options;
// the TestRunner* tests pin its contract.
func run(s Spec, workers int) (*Outcome, error) {
	return Run(context.Background(), s, workers, RunOpts{})
}

// TestRunnerDeterminism is the package's core contract, for the
// one-shot runner: Run's gathered result equals the serial reference
// for every worker count, and the private pool it starts is sized to
// min(workers, cells). make verify runs it under -race (the pool is the
// repository's concurrent hot path).
func TestRunnerDeterminism(t *testing.T) {
	spec := syntheticSpec(42, 64)
	wantResults, want := serialReference(t, spec)
	for _, workers := range []int{1, 2, 8, 64, 100, 0} {
		got, err := run(spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result, want) {
			t.Errorf("workers=%d: result diverged from the serial reference", workers)
		}
		if !reflect.DeepEqual(got.Results, wantResults) {
			t.Errorf("workers=%d: per-cell results diverged", workers)
		}
		size := workers
		if size <= 0 {
			size = runtime.GOMAXPROCS(0)
		}
		if size = min(size, len(spec.Cells)); got.Workers != size {
			t.Errorf("workers=%d: Outcome.Workers = %d, want %d", workers, got.Workers, size)
		}
	}
	// A different base seed must change the results.
	other, err := run(syntheticSpec(43, 64), 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other.Result, want) {
		t.Error("seed 43 reproduced seed 42's results")
	}
}

func TestCellSeedIsPure(t *testing.T) {
	a := Spec{Name: "x", Seed: 42}
	b := Spec{Name: "x", Seed: 42}
	if a.CellSeed("k") != b.CellSeed("k") {
		t.Error("CellSeed not a pure function of (seed, name, key)")
	}
	if a.CellSeed("k") == a.CellSeed("l") {
		t.Error("sibling cells share a seed")
	}
	if a.CellSeed("k") == (Spec{Name: "y", Seed: 42}).CellSeed("k") {
		t.Error("same key in different campaigns shares a seed")
	}
}

func TestRunnerPreservesCellOrder(t *testing.T) {
	spec := syntheticSpec(1, 16)
	out, err := run(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if key := r.([2]any)[0].(string); key != spec.Cells[i].Key {
			t.Errorf("result %d came from cell %s", i, key)
		}
	}
}

func TestRunnerJoinsCellFailures(t *testing.T) {
	spec := Spec{
		Name: "failing", Seed: 1,
		Cells: []Cell{{Key: "ok"}, {Key: "errs"}, {Key: "panics"}},
		Exec: func(c Cell, seed int64) (any, error) {
			switch c.Key {
			case "errs":
				return nil, fmt.Errorf("deliberate failure")
			case "panics":
				panic("deliberate panic")
			}
			return 1, nil
		},
	}
	for _, workers := range []int{1, 3} {
		_, err := run(spec, workers)
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		for _, want := range []string{"cell errs", "deliberate failure", "cell panics", "panic: deliberate panic"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: error %q missing %q", workers, err, want)
			}
		}
	}
}

func TestRunnerValidatesSpecs(t *testing.T) {
	exec := func(Cell, int64) (any, error) { return nil, nil }
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"unnamed", Spec{Exec: exec}, "no name"},
		{"no exec", Spec{Name: "x"}, "no Exec"},
		{"empty key", Spec{Name: "x", Exec: exec, Cells: []Cell{{}}}, "empty key"},
		{"dup key", Spec{Name: "x", Exec: exec, Cells: []Cell{{Key: "a"}, {Key: "a"}}}, "duplicate cell key"},
	} {
		if _, err := run(tc.spec, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestRunnerEmptyGrid(t *testing.T) {
	out, err := run(Spec{Name: "empty", Exec: func(Cell, int64) (any, error) { return nil, nil }}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 0 {
		t.Errorf("%d results from empty grid", len(out.Results))
	}
	if out.Workers != 1 {
		t.Errorf("empty grid ran on %d workers, want the one-worker floor", out.Workers)
	}
}

func TestRunnerWithoutGatherReturnsResults(t *testing.T) {
	spec := Spec{
		Name: "raw", Seed: 1, Cells: []Cell{{Key: "a"}, {Key: "b"}},
		Exec: func(c Cell, seed int64) (any, error) { return c.Key, nil },
	}
	out, err := run(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Result, out.Results) {
		t.Error("nil Gather should surface the raw results")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	build := func(p Params) Spec { return Spec{Name: "t1", Seed: p.Seed} }
	r.Register(Entry{Name: "t1", Kind: KindTable, Title: "first", Build: build})
	r.Register(Entry{Name: "f2", Kind: KindFigure, Title: "second", Build: build})

	if got := r.Names(); !reflect.DeepEqual(got, []string{"t1", "f2"}) {
		t.Errorf("Names() = %v", got)
	}
	if got := r.SortedNames(); !reflect.DeepEqual(got, []string{"f2", "t1"}) {
		t.Errorf("SortedNames() = %v", got)
	}
	e, ok := r.Lookup("f2")
	if !ok || e.Kind != KindFigure || e.Title != "second" {
		t.Errorf("Lookup(f2) = %+v, %v", e, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	if spec := e.Build(Params{Seed: 9, Scale: 1}); spec.Seed != 9 {
		t.Errorf("built spec seed %d", spec.Seed)
	}

	for name, register := range map[string]func(){
		"duplicate": func() { r.Register(Entry{Name: "t1", Build: build}) },
		"empty":     func() { r.Register(Entry{Build: build}) },
		"nil build": func() { r.Register(Entry{Name: "x"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %s entry did not panic", name)
				}
			}()
			register()
		}()
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindTable: "table", KindFigure: "figure", KindAux: "aux", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind %d = %q, want %q", k, got, want)
		}
	}
}
