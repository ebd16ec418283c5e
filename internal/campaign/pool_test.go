package campaign

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolDeterminism is the Pool's core contract: the gathered result
// equals the serial reference for every pool size, stolen or not. make
// verify runs it under -race.
func TestPoolDeterminism(t *testing.T) {
	spec := syntheticSpec(42, 64)
	wantResults, want := serialReference(t, spec)
	for _, workers := range []int{1, 2, 8, 64} {
		p := NewPool(workers)
		got, err := p.Run(spec, RunOpts{})
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result, want) {
			t.Errorf("pool workers=%d: result diverged from the serial reference", workers)
		}
		if !reflect.DeepEqual(got.Results, wantResults) {
			t.Errorf("pool workers=%d: per-cell results diverged", workers)
		}
	}
}

// TestPoolRunsEveryCellExactlyOnce pins the central stealing invariant:
// a cell moved between deques is still executed exactly once, under
// heavy cross-run contention.
func TestPoolRunsEveryCellExactlyOnce(t *testing.T) {
	p := NewPool(8)
	defer p.Close()

	const runs, cells = 6, 40
	counts := make([]int64, runs*cells)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		r := r
		spec := Spec{Name: fmt.Sprintf("count/%d", r), Seed: int64(r)}
		for i := 0; i < cells; i++ {
			spec.Cells = append(spec.Cells, Cell{Key: fmt.Sprintf("c/%d", i), Aux: r*cells + i})
		}
		spec.Exec = func(c Cell, seed int64) (any, error) {
			atomic.AddInt64(&counts[c.Aux.(int)], 1)
			return c.Key, nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Run(spec, RunOpts{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, n := range counts {
		if n != 1 {
			t.Errorf("cell %d executed %d times, want exactly 1", i, n)
		}
	}
}

// TestPoolStealHalf pins the steal policy at the deque level: a thief
// takes the back half (rounded up) of the fullest victim, the victim
// keeps the front, and nothing is duplicated or dropped.
func TestPoolStealHalf(t *testing.T) {
	// A pool with no worker goroutines: manipulate deques directly.
	p := &Pool{deques: make([][]poolItem, 3), workers: 3}
	p.cond = sync.NewCond(&p.mu)
	run := &poolRun{}
	for i := 0; i < 7; i++ {
		p.deques[1] = append(p.deques[1], poolItem{run: run, idx: i})
	}
	p.deques[2] = []poolItem{{run: run, idx: 100}}

	p.mu.Lock()
	stole := p.stealLocked(0)
	p.mu.Unlock()
	if !stole {
		t.Fatal("steal with work available returned false")
	}
	// Victim must be deque 1 (fullest); thief takes ceil(7/2)=4 from the
	// back, victim keeps the front 3.
	if got := len(p.deques[0]); got != 4 {
		t.Fatalf("thief holds %d items, want 4", got)
	}
	if got := len(p.deques[1]); got != 3 {
		t.Fatalf("victim keeps %d items, want 3", got)
	}
	if len(p.deques[2]) != 1 {
		t.Fatal("steal touched a non-victim deque")
	}
	for i, it := range p.deques[1] {
		if it.idx != i {
			t.Errorf("victim kept idx %d at position %d, want the front of its deque", it.idx, i)
		}
	}
	for i, it := range p.deques[0] {
		if it.idx != 3+i {
			t.Errorf("thief got idx %d at position %d, want the back half in order", it.idx, i)
		}
	}

	// No other work: stealing must report empty-handed.
	p.deques[0], p.deques[1], p.deques[2] = nil, nil, nil
	p.mu.Lock()
	stole = p.stealLocked(0)
	p.mu.Unlock()
	if stole {
		t.Error("steal with no work returned true")
	}
}

// TestPoolInterleavesRuns is the scheduling win the pool exists for:
// while a large run's cells are blocked, a small run submitted later
// still completes, because scheduling is per cell, not per job.
func TestPoolInterleavesRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	release := make(chan struct{})
	big := Spec{Name: "big", Seed: 1}
	for i := 0; i < 3; i++ {
		big.Cells = append(big.Cells, Cell{Key: fmt.Sprintf("b/%d", i)})
	}
	big.Exec = func(c Cell, seed int64) (any, error) { <-release; return c.Key, nil }

	bigDone := make(chan struct{})
	go func() { defer close(bigDone); p.Run(big, RunOpts{}) }()

	small := Spec{
		Name: "small", Seed: 2, Cells: []Cell{{Key: "s"}},
		Exec: func(c Cell, seed int64) (any, error) { return "done", nil },
	}
	smallDone := make(chan error, 1)
	go func() {
		_, err := p.Run(small, RunOpts{})
		smallDone <- err
	}()

	select {
	case err := <-smallDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("small run starved behind a blocked large run")
	}
	close(release)
	<-bigDone
}

// TestPoolOnCellAndStats checks the OnCell hook sees every cell's
// final stats and result on a shared pool.
func TestPoolOnCellAndStats(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	spec := syntheticSpec(7, 10)

	var mu sync.Mutex
	seen := map[int]CellStat{}
	results := map[int]any{}
	out, err := p.Run(spec, RunOpts{OnCell: func(i int, stat CellStat, result any) {
		mu.Lock()
		seen[i], results[i] = stat, result
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(spec.Cells) {
		t.Fatalf("OnCell fired %d times for %d cells", len(seen), len(spec.Cells))
	}
	for i, c := range spec.Cells {
		stat := seen[i]
		if stat.Key != c.Key || stat.Seed != spec.CellSeed(c.Key) || stat.Attempts != 1 {
			t.Errorf("cell %d stat %+v inconsistent", i, stat)
		}
		if out.Cells[i] != stat {
			t.Errorf("cell %d: OnCell stat and Outcome stat diverge", i)
		}
		if !reflect.DeepEqual(results[i], out.Results[i]) {
			t.Errorf("cell %d: OnCell result %v, Outcome result %v", i, results[i], out.Results[i])
		}
	}
	if out.Workers != 3 {
		t.Errorf("Outcome.Workers = %d, want the pool size", out.Workers)
	}
}

// TestPoolJoinsCellFailures checks error joining and panic recovery on
// a shared pool, and that a failing cell runs exactly once.
func TestPoolJoinsCellFailures(t *testing.T) {
	p := NewPool(2)
	defer p.Close()

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
	out, err := p.Run(spec, RunOpts{})
	if err == nil {
		t.Fatal("no error from failing grid")
	}
	for _, want := range []string{"cell errs", "deliberate failure", "cell panics", "panic: deliberate panic"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if out.Result != nil {
		t.Error("Gather ran on a partial grid")
	}
	for _, stat := range out.Cells {
		if stat.Attempts != 1 {
			t.Errorf("cell %s: %d attempts, want 1", stat.Key, stat.Attempts)
		}
	}
}

// TestPoolCancellation: cancelling one run's context withdraws its
// queued cells (recording the context error) without touching a
// concurrent run on the same pool.
func TestPoolCancellation(t *testing.T) {
	p := NewPool(1) // single worker so queued cells stay queued
	defer p.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	blocked := Spec{Name: "blocked", Seed: 1, Cells: []Cell{{Key: "gate"}, {Key: "q1"}, {Key: "q2"}}}
	var once sync.Once
	blocked.Exec = func(c Cell, seed int64) (any, error) {
		once.Do(func() { close(started) })
		<-release
		return c.Key, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	outc := make(chan *Outcome, 1)
	errc := make(chan error, 1)
	go func() {
		out, err := p.RunContext(ctx, blocked, RunOpts{})
		outc <- out
		errc <- err
	}()
	<-started
	cancel()
	// The executing cell is still blocked; queued cells must already be
	// withdrawn, but RunContext only returns after the in-flight cell
	// finishes.
	close(release)
	out, err := <-outc, <-errc
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %q does not carry the context error", err)
	}
	canceled := 0
	for _, stat := range out.Cells {
		if stat.Err == context.Canceled.Error() && stat.Attempts == 0 {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("no queued cell recorded the context error")
	}

	// The pool must still run fresh work after a cancellation.
	small := Spec{Name: "after", Seed: 2, Cells: []Cell{{Key: "s"}},
		Exec: func(c Cell, seed int64) (any, error) { return "ok", nil }}
	if _, err := p.Run(small, RunOpts{}); err != nil {
		t.Fatalf("pool broken after cancellation: %v", err)
	}
}

// TestPoolClose: Close drains queued work, and submitting afterwards
// fails cleanly.
func TestPoolClose(t *testing.T) {
	p := NewPool(2)
	spec := syntheticSpec(3, 8)
	if _, err := p.Run(spec, RunOpts{}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Run(spec, RunOpts{}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("submit after Close: %v, want closed error", err)
	}
}

// TestPoolValidatesSpecs: a shared pool validates specs before
// scheduling anything, and runs an empty grid to an empty outcome.
func TestPoolValidatesSpecs(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if _, err := p.Run(Spec{}, RunOpts{}); err == nil || !strings.Contains(err.Error(), "no name") {
		t.Errorf("invalid spec: %v", err)
	}
	out, err := p.Run(Spec{Name: "empty", Exec: func(Cell, int64) (any, error) { return nil, nil }}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 0 {
		t.Errorf("%d results from empty grid", len(out.Results))
	}
}
