package campaign

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSortedEntriesStableOrder pins the listing bugfix: names, kinds
// and titles come back in lexical name order no matter how the
// registry was assembled. `experiments -list` and serverd's
// GET /v1/specs both present this order.
func TestSortedEntriesStableOrder(t *testing.T) {
	build := func(p Params) Spec {
		return Spec{Cells: []Cell{{Key: "k"}}, Exec: func(Cell, int64) (any, error) { return nil, nil }}
	}
	orders := [][]string{
		{"fig9", "ablation", "table6", "e2e"},
		{"table6", "e2e", "fig9", "ablation"},
		{"e2e", "table6", "ablation", "fig9"},
	}
	want := []string{"ablation", "e2e", "fig9", "table6"}
	for _, order := range orders {
		r := NewRegistry()
		for _, name := range order {
			r.Register(Entry{Name: name, Kind: KindAux, Title: "title of " + name, Build: build})
		}
		entries := r.SortedEntries()
		var names []string
		for _, e := range entries {
			names = append(names, e.Name)
			if e.Title != "title of "+e.Name {
				t.Errorf("registered in order %v: entry %s lost its title (%q)", order, e.Name, e.Title)
			}
		}
		if fmt.Sprint(names) != fmt.Sprint(want) {
			t.Errorf("registered in order %v: SortedEntries = %v, want %v", order, names, want)
		}
		// Registration order stays available for rendering.
		if fmt.Sprint(r.Names()) != fmt.Sprint(order) {
			t.Errorf("Names() = %v, want registration order %v", r.Names(), order)
		}
	}
}

// TestRunContextCancelStopsDispatch proves cooperative cancellation:
// once the context is cancelled the pool starts no further cells, the
// never-started cells report the context error with their
// deterministic key and seed, and the cells that did run kept their
// results.
func TestRunContextCancelStopsDispatch(t *testing.T) {
	const n = 50
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	s := Spec{
		Name: "cancelgrid",
		Exec: func(c Cell, seed int64) (any, error) {
			if started.Add(1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return seed, nil
		},
	}
	for i := 0; i < n; i++ {
		s.Cells = append(s.Cells, Cell{Key: fmt.Sprintf("c%02d", i)})
	}

	out, err := Run(ctx, s, 2, RunOpts{})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %q does not mention the context", err)
	}
	if out == nil {
		t.Fatal("cancelled run returned nil outcome")
	}
	if out.Result != nil {
		t.Error("a partial grid was gathered")
	}
	ran, skipped := 0, 0
	for i, st := range out.Cells {
		switch {
		case st.Attempts > 0 && st.Err == "":
			ran++
			if out.Results[i] == nil {
				t.Errorf("cell %s ran but has no result", st.Key)
			}
		case st.Attempts == 0:
			skipped++
			if st.Err != context.Canceled.Error() {
				t.Errorf("skipped cell %s: err = %q, want %q", st.Key, st.Err, context.Canceled)
			}
			if st.Key == "" || st.Seed != s.CellSeed(st.Key) {
				t.Errorf("skipped cell %d lost its identity: %+v", i, st)
			}
		}
	}
	if ran == 0 {
		t.Error("no cell ran before cancellation")
	}
	if skipped == 0 {
		t.Error("cancellation skipped no cells — it landed after the grid finished")
	}
}

// TestOnCellReportsEveryCell pins the progress hook: it fires exactly
// once per cell with the cell's index, final stats and result, for
// both the single-worker and pooled paths.
func TestOnCellReportsEveryCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := Spec{
			Name: "hookgrid",
			Exec: func(c Cell, seed int64) (any, error) {
				if c.Key == "c3" {
					return nil, fmt.Errorf("boom")
				}
				return seed, nil
			},
		}
		for i := 0; i < 8; i++ {
			s.Cells = append(s.Cells, Cell{Key: fmt.Sprintf("c%d", i)})
		}
		seen := make([]CellStat, len(s.Cells))
		results := make([]any, len(s.Cells))
		var calls atomic.Int32
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		out, err := Run(context.Background(), s, workers, RunOpts{OnCell: func(i int, st CellStat, result any) {
			<-mu
			seen[i], results[i] = st, result
			mu <- struct{}{}
			calls.Add(1)
		}})
		if err == nil || !strings.Contains(err.Error(), "c3") {
			t.Fatalf("workers=%d: expected c3 failure, got %v", workers, err)
		}
		if got := calls.Load(); got != int32(len(s.Cells)) {
			t.Errorf("workers=%d: OnCell fired %d times, want %d", workers, got, len(s.Cells))
		}
		for i, st := range seen {
			if st.Key != s.Cells[i].Key {
				t.Errorf("workers=%d: index %d saw key %q, want %q", workers, i, st.Key, s.Cells[i].Key)
			}
		}
		if seen[3].Err == "" || seen[3].Attempts != 1 {
			t.Errorf("workers=%d: failing cell stat = %+v", workers, seen[3])
		}
		if !reflect.DeepEqual(results, out.Results) || results[3] != nil {
			t.Errorf("workers=%d: OnCell results %v, want the Outcome's %v with nil for the failed cell", workers, results, out.Results)
		}
	}
}
