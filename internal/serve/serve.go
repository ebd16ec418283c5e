// Package serve exposes the campaign engine as a long-lived HTTP
// service: the serving layer the ROADMAP's "heavy traffic" goal needs
// on top of the one-shot CLIs.
//
// A Server wraps a campaign Registry behind a small job API
// (cmd/serverd is the binary; API.md is the wire contract). Clients
// POST a job — a registered spec name or an inline cell grid, plus
// seed/scale/parallel — and poll it to completion; the result endpoint
// serves the canonical JSON envelope, byte-identical to
// `experiments -json -canon -only <spec>` at the same seed and scale,
// for any shard-pool size and any per-job parallelism. Determinism is
// inherited from internal/campaign (per-cell seeds derive from stable
// keys) and pinned by this package's tests.
//
// Every job runs through one pipeline: the cells it still lacks a
// result for execute on a local campaign.Pool — the server's shared
// one, or a job-private one when the job pins parallel — or, on a
// coordinator, are leased to worker nodes; campaign.AssembleOutcome
// merges the grid either way. Capacity is bounded at two levels:
// Shards jobs execute concurrently and at most QueueDepth more wait.
// When both are full POST returns 429 with a Retry-After hint —
// backpressure, never unbounded buffering.
// DELETE cancels a job (queued jobs never start; running jobs stop
// dispatching cells at the next boundary), Drain stops admission and
// waits for everything admitted to finish (SIGTERM in serverd), and
// completed jobs are retained up to a bound, oldest-evicted-first.
// Every finished job carries an obs run manifest recording exactly
// what executed.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rhohammer/internal/campaign"
	"rhohammer/internal/experiments"
	"rhohammer/internal/obs"
	"rhohammer/internal/store"
)

// Serve-layer counters, exposed at /metrics next to the substrate's.
// They count unconditionally (admission is cold path, so the
// obs.Enabled gate that protects the hot layers is unnecessary here).
var (
	jobsAccepted  = obs.Default.Counter("rhohammer_serve_jobs_accepted_total")
	jobsRejected  = obs.Default.Counter("rhohammer_serve_jobs_rejected_total")
	jobsCompleted = obs.Default.Counter("rhohammer_serve_jobs_completed_total")
	jobsFailed    = obs.Default.Counter("rhohammer_serve_jobs_failed_total")
	jobsCanceled  = obs.Default.Counter("rhohammer_serve_jobs_canceled_total")
)

// Config parameterizes a Server. The zero value of every field gets a
// sensible default from New.
type Config struct {
	// Registry names the specs POST /v1/jobs accepts. Required.
	Registry *campaign.Registry
	// Shards is the number of jobs executing concurrently. Their cells
	// interleave on one shared campaign.Pool of Shards×GOMAXPROCS
	// workers, so a small grid never serializes behind a large one; a
	// job that pins parallel runs on a private pool of that size
	// instead. Default 2.
	Shards int
	// QueueDepth bounds the number of admitted-but-not-running jobs.
	// Default 16.
	QueueDepth int
	// Retain is how many terminal jobs are kept for result retrieval;
	// beyond it the oldest-finished job is evicted. Default 64.
	Retain int
	// RetryAfter is the hint returned in the Retry-After header with
	// 429 responses. Default 1s.
	RetryAfter time.Duration
	// ManifestDir, when non-empty, receives one <job-id>.json obs
	// manifest per finished job (the manifest endpoint serves the same
	// bytes either way).
	ManifestDir string
	// DefaultSeed seeds jobs that do not specify one. Default 42,
	// matching cmd/experiments.
	DefaultSeed int64
	// CacheSize bounds the completed-result cache: resubmitting a
	// registered spec at a (seed, scale) that already completed yields a
	// job born done, serving the cached envelopes without re-running the
	// campaign (results are deterministic, so the bytes are identical).
	// Default 64; negative disables caching. Inline specs bypass the
	// cache entirely.
	CacheSize int
	// TraceCap bounds each per-session obs trace ring recorded for a
	// running job (served at GET /v1/jobs/{id}/trace). 0 means
	// obs.DefaultTraceCap; negative disables per-job trace capture.
	TraceCap int
	// MaxReplayBytes bounds the POST /v1/replay request body. Default
	// 4 MiB.
	MaxReplayBytes int64
	// Coordinator enables the distributed control plane (SCALING.md):
	// the lease routes are registered, and registered-spec jobs execute
	// on worker nodes instead of locally — the coordinator derives the
	// cell seeds, leases batches of cells out, and merges the completed
	// grid into the same canonical envelope a standalone server
	// produces. Inline and replay jobs still run locally.
	Coordinator bool
	// LeaseTTL is how long a granted lease lives without a renewal
	// before its cells are reclaimed and re-leased. Default 10s.
	LeaseTTL time.Duration
	// LeaseBatch caps the cells granted per lease. Default 4.
	LeaseBatch int
	// StoreDir, when non-empty, enables the durable job store
	// (internal/store, OPERATIONS.md): registered-spec jobs journal
	// their admission, every completed cell, and their terminal
	// envelopes to this directory, and New replays it so a restarted
	// server resumes in-flight jobs (incomplete cells re-queue,
	// completed cells keep their results) and re-serves finished ones.
	StoreDir string
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Retain <= 0 {
		c.Retain = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DefaultSeed == 0 {
		c.DefaultSeed = 42
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.MaxReplayBytes == 0 {
		c.MaxReplayBytes = 4 << 20
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.LeaseBatch <= 0 {
		c.LeaseBatch = 4
	}
	return c
}

// Server is the HTTP campaign service. Create with New, serve its
// Handler, and Drain it before exit.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	done     []string // terminal job IDs in completion order, for eviction
	seq      int
	draining bool
	queue    chan *Job
	cache    *resultCache // nil when caching is disabled

	// pool is the shared cell scheduler for jobs without an explicit
	// parallel value.
	pool *campaign.Pool

	// store is the durable job store; nil without Config.StoreDir.
	store *store.Store

	// Coordinator-mode state (lease.go), guarded by mu.
	distQueue   []*distJob
	leases      map[string]*lease
	workers     map[string]*workerInfo
	leaseSeq    int
	workerSeq   int
	janitorStop chan struct{}

	// queued/running/pendingCells/oldestPending are atomics, not
	// mu-guarded fields: the /metrics gauges read them from inside the
	// obs registry's snapshot lock, which would deadlock against a
	// manifest emission holding mu (attachManifestLocked → obs.Values →
	// gauge). pendingCells counts cells awaiting lease across all
	// distributed jobs; oldestPending is the UnixNano creation time of
	// the oldest non-terminal job (0 when none) — together the
	// autoscaling signals OPERATIONS.md interprets.
	queued        atomic.Int64
	running       atomic.Int64
	pendingCells  atomic.Int64
	oldestPending atomic.Int64

	shards sync.WaitGroup
}

// Routes returns every route pattern the server registers, in API.md
// order. The doccheck suite pins that API.md documents each of them;
// keep the two in sync.
func Routes() []string {
	return []string{
		"POST /v1/jobs",
		"GET /v1/jobs/{id}",
		"GET /v1/jobs/{id}/result",
		"GET /v1/jobs/{id}/manifest",
		"GET /v1/jobs/{id}/trace",
		"DELETE /v1/jobs/{id}",
		"POST /v1/replay",
		"GET /v1/specs",
		"GET /metrics",
		"GET /healthz",
	}
}

// New builds a Server and starts its shard pool. The caller owns the
// HTTP listener (httptest in tests, net.Listen in serverd) and must
// call Drain to stop the pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil {
		return nil, errors.New("serve: Config.Registry is required")
	}
	// The store is opened (and its journal replayed) before anything
	// else so the queue can be sized to hold every recovered in-flight
	// job on top of the configured depth — recovery must never trip its
	// own backpressure.
	var st *store.Store
	var recovered *store.State
	if cfg.StoreDir != "" {
		var err error
		st, recovered, err = store.Open(cfg.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("serve: opening job store: %w", err)
		}
	}
	extra := 0
	if recovered != nil {
		extra = len(recovered.Jobs)
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		jobs:  map[string]*Job{},
		queue: make(chan *Job, cfg.QueueDepth+extra),
		store: st,
		pool:  campaign.NewPool(cfg.Shards * runtime.GOMAXPROCS(0)),
	}
	if cfg.CacheSize > 0 {
		s.cache = newResultCache(cfg.CacheSize)
	}
	handlers := map[string]http.HandlerFunc{
		"POST /v1/jobs":              s.handleSubmit,
		"GET /v1/jobs/{id}":          s.handleStatus,
		"GET /v1/jobs/{id}/result":   s.handleResult,
		"GET /v1/jobs/{id}/manifest": s.handleManifest,
		"GET /v1/jobs/{id}/trace":    s.handleTrace,
		"DELETE /v1/jobs/{id}":       s.handleCancel,
		"POST /v1/replay":            s.handleReplay,
		"GET /v1/specs":              s.handleSpecs,
		"GET /metrics":               s.handleMetrics,
		"GET /healthz":               s.handleHealthz,
	}
	for _, pattern := range Routes() {
		h, ok := handlers[pattern]
		if !ok {
			return nil, fmt.Errorf("serve: route %q has no handler", pattern)
		}
		s.mux.HandleFunc(pattern, h)
	}
	if cfg.Coordinator {
		s.leases = map[string]*lease{}
		s.workers = map[string]*workerInfo{}
		s.janitorStop = make(chan struct{})
		coordHandlers := map[string]http.HandlerFunc{
			"POST /v1/workers":              s.handleWorkerRegister,
			"GET /v1/workers":               s.handleWorkerList,
			"POST /v1/workers/{name}/drain": s.handleWorkerDrain,
			"POST /v1/leases":               s.handleLeaseAcquire,
			"POST /v1/leases/{id}/renew":    s.handleLeaseRenew,
			"POST /v1/leases/{id}/complete": s.handleLeaseComplete,
		}
		for _, pattern := range CoordinatorRoutes() {
			h, ok := coordHandlers[pattern]
			if !ok {
				return nil, fmt.Errorf("serve: coordinator route %q has no handler", pattern)
			}
			s.mux.HandleFunc(pattern, h)
		}
		go s.janitor(cfg.LeaseTTL/2, s.janitorStop)
	}
	if recovered != nil {
		// Shards are not running yet, so recovery fills the jobs map and
		// queue without racing admission.
		s.recoverState(recovered)
	}
	obs.Default.Gauge("rhohammer_serve_queue_depth", s.queued.Load)
	obs.Default.Gauge("rhohammer_serve_jobs_running", s.running.Load)
	obs.Default.Gauge("rhohammer_serve_pending_cells", s.pendingCells.Load)
	obs.Default.Gauge("rhohammer_serve_oldest_pending_seconds", func() int64 {
		ns := s.oldestPending.Load()
		if ns == 0 {
			return 0
		}
		sec := int64(time.Since(time.Unix(0, ns)) / time.Second)
		if sec < 0 {
			sec = 0
		}
		return sec
	})
	for i := 0; i < cfg.Shards; i++ {
		s.shards.Add(1)
		go s.shard()
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting jobs (POST returns 503) and blocks until every
// already-admitted job reaches a terminal state and the shard pool has
// exited. Status, result and manifest endpoints keep serving
// throughout, so clients can collect results while the server drains.
// If ctx expires first, every unfinished job is cancelled and Drain
// waits for the (now short) tail before returning ctx's error.
// Drain is idempotent; only the first call closes the queue.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.shards.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		s.stopSchedulers()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if !j.state.terminal() {
				j.canceled = true
				if j.cancel != nil {
					j.cancel()
				}
			}
		}
		s.mu.Unlock()
		<-finished
		s.stopSchedulers()
		return ctx.Err()
	}
}

// stopSchedulers releases the shared cell pool and the lease janitor
// once every admitted job is terminal. Idempotent (Drain can be called
// repeatedly); the janitor must outlive the drain itself so expired
// leases from dead workers keep being reclaimed while distributed jobs
// finish.
func (s *Server) stopSchedulers() {
	s.mu.Lock()
	stop := s.janitorStop
	s.janitorStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	s.pool.Close()
}

// shard is one worker of the job pool: it pops admitted jobs and runs
// them to completion, one at a time.
func (s *Server) shard() {
	defer s.shards.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job and finalizes it. Every job takes the same
// path: the cells without a result — all of them, unless recovery
// prefilled some from the journal — run on a local pool or are leased
// to worker nodes, and AssembleOutcome merges the full grid. Placement
// is the only variable, and it cannot change result bytes: that is the
// package's determinism contract.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	s.queued.Add(-1)
	if j.canceled || j.state.terminal() {
		// Cancelled while queued: it never starts.
		s.finishLocked(j, StateCanceled, "canceled before start")
		s.attachManifestLocked(j, nil)
		s.persistTerminalLocked(j)
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	s.running.Add(1)
	leased := s.cfg.Coordinator && j.distributable
	// Per-job trace capture: every cell seed is reserved before any cell
	// runs, so the hammer sessions the campaign creates record into this
	// job's rings regardless of global tracing state. The dump becomes
	// GET /v1/jobs/{id}/trace. Leased cells execute no local sessions,
	// so there is nothing to capture.
	var capt *obs.Capture
	if s.cfg.TraceCap >= 0 && !leased {
		capt = obs.NewCapture(s.cfg.TraceCap)
		for _, cs := range j.cellStats {
			capt.Reserve(cs.Seed)
		}
	}
	var missing []int
	for i, v := range j.results {
		if v == nil {
			missing = append(missing, i)
		}
	}
	s.mu.Unlock()

	start := time.Now()
	var workers int
	var err error
	if leased {
		workers = s.runLeased(ctx, j, missing)
	} else {
		workers, err = s.runLocal(ctx, j, missing)
	}
	// The run is over, so nothing writes the merge arrays any more.
	var out *campaign.Outcome
	if err == nil {
		out, err = campaign.AssembleOutcome(j.spec, workers, time.Since(start), j.results, j.cellStats)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running.Add(-1)
	if capt != nil {
		capt.Release()
		if capt.Len() > 0 {
			var buf bytes.Buffer
			if err := capt.WriteJSONL(&buf); err == nil {
				j.trace = buf.Bytes()
			}
		}
	}
	switch {
	case j.canceled:
		s.finishLocked(j, StateCanceled, "canceled")
	case err != nil:
		s.finishLocked(j, StateFailed, err.Error())
	default:
		cfg := experiments.Config{Seed: j.Seed, Scale: j.Scale, Workers: j.Parallel}
		var canon, timed bytes.Buffer
		encErr := experiments.WriteCanonicalOutcomeJSON(&canon, j.SpecName, cfg, out.Result, out)
		if encErr == nil {
			encErr = experiments.WriteOutcomeJSON(&timed, j.SpecName, cfg, out.Result, out)
		}
		if encErr != nil {
			s.finishLocked(j, StateFailed, encErr.Error())
			break
		}
		j.result = canon.Bytes()
		j.resultTimed = timed.Bytes()
		s.finishLocked(j, StateDone, "")
		if s.cache != nil && j.cacheable {
			s.cache.put(cacheKey{spec: j.SpecName, seed: j.Seed, scale: j.Scale},
				cacheEntry{canon: j.result, timed: j.resultTimed})
		}
	}
	s.attachManifestLocked(j, out)
	s.persistTerminalLocked(j)
}

// runLocal executes the missing cells in this process: on the shared
// pool, or on a private pool of Parallel workers when the job pinned
// one. Each cell's result and stat land in the job as the cell
// finishes — journaled first when the job is persisted, so the status
// never counts a cell a restart would have to re-run. Returns the pool
// size; the error is the pool's refusal to run at all.
func (s *Server) runLocal(ctx context.Context, j *Job, missing []int) (int, error) {
	if len(missing) == 0 {
		return 1, nil // recovered with every cell journaled
	}
	sub := j.spec
	sub.Gather = nil // runJob's AssembleOutcome gathers the whole grid
	sub.Cells = make([]campaign.Cell, len(missing))
	for k, i := range missing {
		sub.Cells[k] = j.spec.Cells[i]
	}
	opts := campaign.RunOpts{OnCell: func(k int, stat campaign.CellStat, v any) {
		i := missing[k]
		if j.persisted && stat.Err == "" {
			s.persistCell(j.ID, i, "", stat, v, nil)
		}
		s.mu.Lock()
		j.results[i], j.cellStats[i] = v, stat
		j.cellsDone++
		s.mu.Unlock()
	}}
	var out *campaign.Outcome
	var err error
	if j.Parallel > 0 {
		out, err = campaign.Run(ctx, sub, j.Parallel, opts)
	} else {
		out, err = s.pool.RunContext(ctx, sub, opts)
	}
	if out == nil {
		return 0, err
	}
	// The pool's stats also cover the cells a cancellation withdrew
	// before they started, which OnCell never sees.
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, i := range missing {
		j.cellStats[i] = out.Cells[k]
	}
	return out.Workers, nil
}

// finishLocked moves a job to a terminal state, updates counters and
// evicts beyond the retention bound. Caller holds s.mu.
func (s *Server) finishLocked(j *Job, st State, errText string) {
	if j.state.terminal() {
		return
	}
	j.state = st
	j.err = errText
	j.finished = time.Now()
	j.results = nil // nothing runs for a terminal job
	switch st {
	case StateDone:
		jobsCompleted.Inc()
	case StateFailed:
		jobsFailed.Inc()
	case StateCanceled:
		jobsCanceled.Inc()
	}
	s.done = append(s.done, j.ID)
	for len(s.done) > s.cfg.Retain {
		s.evictOldestLocked()
	}
	s.recomputeOldestLocked()
}

// attachManifestLocked records the job's obs manifest (and writes it to
// ManifestDir when configured). Caller holds s.mu.
func (s *Server) attachManifestLocked(j *Job, out *campaign.Outcome) {
	if j.manifest != nil {
		return
	}
	labels := []string{"job", j.ID, "spec", j.SpecName}
	if j.cached {
		labels = append(labels, "cached", "true")
	}
	m := obs.NewManifest("serverd", labels)
	m.Date = j.finished.UTC().Format(time.RFC3339)
	m.Seed, m.Scale, m.Workers = j.Seed, j.Scale, j.Parallel
	rec := obs.RunRecord{Name: j.SpecName, Err: j.err}
	if out != nil {
		rec.WallNS = int64(out.Wall)
		rec.Workers = out.Workers
		for i, c := range out.Cells {
			cr := obs.CellRecord{
				Key: c.Key, Seed: c.Seed, WallNS: int64(c.Wall),
				Attempts: c.Attempts, Err: c.Err,
			}
			if i < len(j.cellNodes) {
				cr.Node = j.cellNodes[i]
			}
			rec.Cells = append(rec.Cells, cr)
		}
	}
	m.Runs = []obs.RunRecord{rec}
	// Summarize each worker node's share of the leased cells (placement
	// is scheduling noise, so it lives only in this as-executed record).
	counts := map[string]int{}
	for _, node := range j.cellNodes {
		if node != "" {
			counts[node]++
		}
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.Nodes = append(m.Nodes, obs.NodeRecord{Name: name, Cells: counts[name]})
	}
	if obs.Enabled() {
		m.Counters = obs.Default.Values()
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return
	}
	data = append(data, '\n')
	j.manifest = data
	if s.cfg.ManifestDir != "" {
		// Best-effort: a failed manifest write must not fail the job.
		_ = writeManifestFile(s.cfg.ManifestDir, j.ID, data)
	}
}

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	// Spec names a registered campaign; Inline supplies an ad-hoc grid.
	// Exactly one must be set.
	Spec   string      `json:"spec,omitempty"`
	Inline *InlineSpec `json:"inline,omitempty"`
	// Seed defaults to the server's DefaultSeed, Scale to 1. Parallel
	// (0 = the shared cell pool, N > 0 = a private pool of N workers)
	// never changes result bytes.
	Seed     *int64  `json:"seed,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Parallel int     `json:"parallel,omitempty"`
}

// jobAccepted is the POST /v1/jobs success body.
type jobAccepted struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	StatusURL string `json:"status_url"`
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid job request: " + err.Error()})
		return
	}
	if (req.Spec == "") == (req.Inline == nil) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "exactly one of \"spec\" and \"inline\" must be set"})
		return
	}
	seed := s.cfg.DefaultSeed
	if req.Seed != nil {
		seed = *req.Seed
	}
	scale := req.Scale
	if scale <= 0 {
		scale = 1
	}

	var spec campaign.Spec
	name := req.Spec
	if req.Inline != nil {
		var err error
		spec, err = req.Inline.build(seed)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}
		name = spec.Name
	} else {
		entry, ok := s.cfg.Registry.Lookup(req.Spec)
		if !ok {
			writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown spec %q (GET /v1/specs lists them)", req.Spec)})
			return
		}
		spec = entry.Build(campaign.Params{Seed: seed, Scale: scale})
	}
	if err := spec.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}

	j := newJob(name, spec, seed, scale, req.Parallel)
	j.cacheable = req.Inline == nil
	// Only registry-built jobs can execute on worker nodes: a worker
	// rebuilds the spec from (name, seed, scale) against its own
	// registry, which inline grids and replay traces are absent from.
	// The same property makes them the persistable jobs — recovery
	// rebuilds the spec the identical way.
	j.distributable = req.Inline == nil
	j.persisted = s.store != nil && req.Inline == nil
	s.admit(w, j)
}

// admit runs the shared admission tail for a fully built job — the
// same machinery whether the job came from POST /v1/jobs or
// POST /v1/replay: drain check, result-cache lookup (a hit is born
// done without consuming queue or shard capacity), then queue
// admission with 429 backpressure.
func (s *Server) admit(w http.ResponseWriter, j *Job) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is draining"})
		return
	}
	if s.cache != nil && j.cacheable {
		if e, ok := s.cache.get(cacheKey{spec: j.SpecName, seed: j.Seed, scale: j.Scale}); ok {
			// Cache hit: the job is born done, serving the completed
			// envelopes without consuming queue or shard capacity.
			s.seq++
			j.ID = fmt.Sprintf("job-%06d", s.seq)
			s.jobs[j.ID] = j
			j.cached = true
			j.started = j.created
			j.cellsDone = len(j.spec.Cells)
			j.result = e.canon
			j.resultTimed = e.timed
			s.persistAdmitLocked(j)
			s.finishLocked(j, StateDone, "")
			s.attachManifestLocked(j, nil)
			s.persistTerminalLocked(j)
			s.mu.Unlock()
			jobsAccepted.Inc()
			cacheHits.Inc()
			w.Header().Set("Location", "/v1/jobs/"+j.ID)
			writeJSON(w, http.StatusAccepted, jobAccepted{ID: j.ID, State: StateDone, StatusURL: "/v1/jobs/" + j.ID})
			return
		}
		cacheMisses.Inc()
	}
	s.seq++
	j.ID = fmt.Sprintf("job-%06d", s.seq)
	select {
	case s.queue <- j:
		s.queued.Add(1)
		s.jobs[j.ID] = j
		s.recomputeOldestLocked()
		s.persistAdmitLocked(j)
	default:
		s.seq-- // the ID was never issued
		s.mu.Unlock()
		jobsRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "job queue is full"})
		return
	}
	s.mu.Unlock()
	jobsAccepted.Inc()

	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, jobAccepted{ID: j.ID, State: StateQueued, StatusURL: "/v1/jobs/" + j.ID})
}

// lookupJob fetches a job by path id, writing 404 when absent.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job (completed jobs are evicted beyond the retention bound)"})
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, errText := j.state, j.err
	body := j.result
	if r.URL.Query().Get("timings") == "1" {
		body = j.resultTimed
	}
	s.mu.Unlock()
	switch {
	case state == StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	case state.terminal():
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job %s: %s", state, errText)})
	default:
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job is %s; poll the status endpoint", state)})
	}
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	body := j.manifest
	s.mu.Unlock()
	if body == nil {
		writeJSON(w, http.StatusConflict, apiError{Error: "manifest is written when the job finishes"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	switch {
	case j.state.terminal():
		st := j.state
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job already %s", st)})
		return
	case j.state == StateQueued:
		// The queued entry is skipped when a shard pops it.
		j.canceled = true
		s.finishLocked(j, StateCanceled, "canceled before start")
	default: // running
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, st)
}

// specInfo is one GET /v1/specs entry.
type specInfo struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Title string `json:"title"`
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	entries := s.cfg.Registry.SortedEntries()
	out := make([]specInfo, len(entries))
	for i, e := range entries {
		out[i] = specInfo{Name: e.Name, Kind: e.Kind.String(), Title: e.Title}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	obs.Default.WritePrometheus(w)
}

// healthStatus is the GET /healthz body.
type healthStatus struct {
	Status  string `json:"status"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := healthStatus{Status: "ok", Queued: int(s.queued.Load()), Running: int(s.running.Load())}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
