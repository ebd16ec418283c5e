package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rhohammer/internal/obs"
)

// Pool is the package's cell scheduler: one fixed set of workers
// executing the cells of every campaign submitted to it, concurrently.
// Cells of many Specs interleave — the serving layer's shard problem
// ("one large job serializes behind its shard while the other shards
// idle") disappears because scheduling happens at cell granularity.
//
// The pool keeps one FIFO queue of cells: submitting a run appends its
// cells in grid order, and an idle worker pops the front. Every cell is
// scheduled exactly once.
//
// Results are bit-identical for every pool size: a cell's seed derives
// from its stable key (Spec.CellSeed) and results land at the cell's
// index, so which worker ran a cell cannot change result bytes. A pool
// run does not gather, since its grid may be part of a campaign (a
// resumed job's missing cells, a worker's leased batch). A panicking
// cell is recovered into its own error, OnCell observes each cell as
// it finishes, and cancellation withdraws a run's queued cells.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []poolItem // pending cells, oldest first
	closed bool

	workers int
	wg      sync.WaitGroup
}

// poolItem is one scheduled cell: a run and an index into its grid.
type poolItem struct {
	run *poolRun
	idx int
}

// poolRun is one campaign executing on the pool. results/stats entries
// are written by exactly one worker each (per-index ownership); the
// remaining counter and done channel are guarded by the pool mutex.
type poolRun struct {
	ctx    context.Context
	spec   Spec
	onCell func(int, CellStat, any)

	results   []any
	stats     []CellStat
	remaining int
	done      chan struct{}
}

// RunOpts carries the per-run options a Pool accepts. The pool's size
// is fixed at construction and shared by every run.
type RunOpts struct {
	// OnCell, when non-nil, is called once per executed cell right after
	// it finishes (successfully or not), with the cell's index in
	// Spec.Cells, its stats and its result (nil when the cell failed).
	// It is invoked from worker goroutines — potentially concurrently —
	// and must not block for long: the serve layer uses it for progress
	// reporting and to journal each result as it lands. Cells a
	// cancellation withdrew before they started are not reported.
	OnCell func(index int, stat CellStat, result any)
}

// NewPool starts a pool of the given size; workers <= 0 means
// GOMAXPROCS. Close releases the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// Close stops the workers after the cells already queued have run.
// Runs still waiting in RunContext complete normally first; submitting
// after Close returns an error.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Run executes every cell of the spec on its own pool of
// min(workers, cells) workers (at least one; workers <= 0 means
// GOMAXPROCS), closes that pool and gathers the grid: the one-shot
// form of Pool.RunContext plus AssembleOutcome, for callers that run
// one campaign at a time.
func Run(ctx context.Context, s Spec, workers int, opts RunOpts) (*Outcome, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := NewPool(max(1, min(workers, len(s.Cells))))
	defer p.Close()
	out, err := p.RunContext(ctx, s, opts)
	if err != nil {
		return out, err
	}
	return AssembleOutcome(s, out.Workers, out.Wall, out.Results, out.Cells)
}

// Run executes every cell of the spec on the pool. A cell failure
// (returned error or panic) does not stop, skew, or reorder the other
// cells; all failures are joined into the returned error, each naming
// its cell. On error the Outcome is still returned with every
// successful cell's result at its index (failed cells hold nil) and
// with complete per-cell stats, so a caller can salvage partial grids.
// The pool does not gather: Outcome.Result is nil.
func (p *Pool) Run(s Spec, opts RunOpts) (*Outcome, error) {
	return p.RunContext(context.Background(), s, opts)
}

// RunContext is Run with cooperative cancellation: when ctx is
// cancelled, this run's still-queued cells are withdrawn from the
// queue (recording ctx's error as their stat, with Attempts 0), cells
// already executing finish (Exec takes no context — cells are meant to
// be fine-grained), and the call returns once nothing of the run
// remains in flight. Other runs sharing the pool are unaffected, and
// every cell that did run used its derived seed, so a partial grid is
// a subset of the full run.
func (p *Pool) RunContext(ctx context.Context, s Spec, opts RunOpts) (*Outcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := len(s.Cells)
	run := &poolRun{
		ctx:    ctx,
		spec:   s,
		onCell: opts.OnCell,

		results:   make([]any, n),
		stats:     make([]CellStat, n),
		remaining: n,
		done:      make(chan struct{}),
	}
	start := time.Now()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("campaign: pool is closed")
	}
	if n == 0 {
		close(run.done)
	}
	for i := 0; i < n; i++ {
		p.queue = append(p.queue, poolItem{run: run, idx: i})
	}
	p.mu.Unlock()
	p.cond.Broadcast()

	select {
	case <-run.done:
	case <-ctx.Done():
		p.withdraw(run)
		<-run.done
	}
	out, err := collect(s, p.workers, time.Since(start), run.results, run.stats)
	if obs.Enabled() {
		// Flushed per pool run, so the campaign counters count the cells
		// this process scheduled — never a merge of cells run elsewhere.
		obs.CampaignCells.Add(int64(n))
		obs.CampaignBusyNS.Add(int64(out.Busy))
		obs.CampaignWallNS.Add(int64(out.Wall))
		for _, st := range run.stats {
			if st.Err != "" {
				obs.CampaignFailures.Inc()
			}
		}
	}
	return out, err
}

// withdraw removes a cancelled run's still-queued cells from the
// queue, recording the context error as their stat. Cells a worker has
// already popped are left to finish (the worker records them itself).
func (p *Pool) withdraw(run *poolRun) {
	err := run.ctx.Err()
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.queue[:0]
	for _, it := range p.queue {
		if it.run != run {
			kept = append(kept, it)
			continue
		}
		c := run.spec.Cells[it.idx]
		run.stats[it.idx] = CellStat{Key: c.Key, Seed: run.spec.CellSeed(c.Key), Err: err.Error()}
		p.finishItemLocked(run)
	}
	clear(p.queue[len(kept):]) // as in worker: do not pin the withdrawn run
	p.queue = kept
}

// finishItemLocked marks one cell of a run handled, closing done on the
// last. Caller holds p.mu.
func (p *Pool) finishItemLocked(run *poolRun) {
	run.remaining--
	if run.remaining == 0 {
		close(run.done)
	}
}

// worker is one pool goroutine: pop the front of the queue, exit when
// the pool is closed and the queue is empty.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
		item := p.queue[0]
		p.queue[0] = poolItem{} // the backing array outlives the pop; do not pin the run
		p.queue = p.queue[1:]
		p.mu.Unlock()

		p.execute(item)
	}
}

// execute runs one popped cell: cancelled runs record the context error
// without executing, everything else goes through runCell.
func (p *Pool) execute(it poolItem) {
	run := it.run
	if err := run.ctx.Err(); err != nil {
		c := run.spec.Cells[it.idx]
		run.stats[it.idx] = CellStat{Key: c.Key, Seed: run.spec.CellSeed(c.Key), Err: err.Error()}
	} else {
		result, stat := runCell(run.spec, it.idx)
		run.results[it.idx] = result
		run.stats[it.idx] = stat
		if run.onCell != nil {
			run.onCell(it.idx, stat, result)
		}
	}
	p.mu.Lock()
	p.finishItemLocked(run)
	p.mu.Unlock()
}

// runCell executes one cell, timing it and converting a panic into an
// error so a failing cell reports its key instead of killing the
// process from a worker goroutine.
func runCell(s Spec, i int) (result any, stat CellStat) {
	c := s.Cells[i]
	stat = CellStat{Key: c.Key, Seed: s.CellSeed(c.Key), Attempts: 1}
	t0 := time.Now()
	defer func() {
		if p := recover(); p != nil {
			result, stat.Err = nil, fmt.Sprintf("panic: %v", p)
		}
		stat.Wall = time.Since(t0)
	}()
	result, err := s.Exec(c, stat.Seed)
	if err != nil {
		result, stat.Err = nil, err.Error()
	}
	return result, stat
}

// AssembleOutcome builds the Outcome of a full grid from index-ordered
// results and stats, as a Pool run does, and gathers it when every cell
// succeeded with a result the spec's CheckResult accepts; otherwise
// the error names each offending cell and Result stays nil. Run ends
// with it, and the serve layer merges a job's grid — cells run
// locally, leased to worker nodes or recovered from its journal —
// through it, so an Outcome assembled from remote cells is
// indistinguishable from a local run.
func AssembleOutcome(s Spec, workers int, wall time.Duration, results []any, stats []CellStat) (*Outcome, error) {
	out, err := collect(s, workers, wall, results, stats)
	if err != nil {
		return out, err
	}
	out.Result = results
	if s.gather != nil {
		out.Result = s.gather(results)
	}
	return out, nil
}

// collect builds an ungathered Outcome: busy time is summed, and each
// failed cell and each result CheckResult refuses is an error.
func collect(s Spec, workers int, wall time.Duration, results []any, stats []CellStat) (*Outcome, error) {
	out := &Outcome{
		Name:    s.Name,
		Workers: workers,
		Results: results,
		Cells:   stats,
		Wall:    wall,
	}
	var errs []error
	for i, st := range stats {
		out.Busy += st.Wall
		if st.Err != "" {
			errs = append(errs, fmt.Errorf("campaign %s: cell %s: %s", s.Name, st.Key, st.Err))
		} else if err := s.CheckResult(results[i]); err != nil {
			errs = append(errs, fmt.Errorf("campaign %s: cell %s: %w", s.Name, st.Key, err))
		}
	}
	return out, errors.Join(errs...)
}
