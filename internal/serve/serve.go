// Package serve exposes the campaign engine as a long-lived HTTP
// service: the serving layer the ROADMAP's "heavy traffic" goal needs
// on top of the one-shot CLIs.
//
// A Server wraps a campaign Registry behind a small job API
// (cmd/serverd is the binary; API.md is the wire contract). Clients
// POST a job — a registered spec name or an inline cell grid, plus
// seed and scale — and poll it to completion; the result endpoint
// serves the canonical JSON envelope, byte-identical to
// `experiments -json -only <spec>` at the same seed and scale, for any
// shard-pool size. Placement is the server's decision alone, so no
// request names a worker count. Determinism is inherited from
// internal/campaign (per-cell seeds derive from stable keys) and
// pinned by this package's tests.
//
// Every job runs through one pipeline: the cells it still lacks a
// result for execute on the server's one shared campaign.Pool or, on a
// coordinator, are leased to worker nodes; campaign.AssembleOutcome
// merges the grid either way. Capacity is bounded at two levels:
// Shards jobs execute concurrently and at most QueueDepth more wait.
// When both are full POST returns 429 with a Retry-After hint —
// backpressure, never unbounded buffering.
// DELETE cancels a job (queued jobs never start; running jobs stop
// dispatching cells at the next boundary), Drain stops admission and
// waits for everything admitted to finish (SIGTERM in serverd), and
// completed jobs are retained up to a bound, oldest-evicted-first; the
// retained done jobs double as the result cache. Every finished job
// carries an obs run manifest recording exactly what executed — its
// workers, wall time and per-cell wall times, which the canonical
// envelope leaves out.
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
	// workers, so a small grid never serializes behind a large one.
	// Default 2.
	Shards int
	// QueueDepth bounds the number of admitted-but-not-running jobs.
	// Default 16.
	QueueDepth int
	// Retain is how many terminal jobs are kept for result retrieval;
	// beyond it the oldest-finished job is evicted. The retained done
	// jobs are also the result cache: resubmitting a registered spec at
	// a (seed, scale) one of them ran yields a job born done with its
	// envelope, without re-running the campaign (results are
	// deterministic, so the bytes are identical). Inline specs bypass
	// the cache. Default 64.
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
	// LeaseBatch caps the cells granted per lease; it is the one batch
	// bound, since workers ask for no size. Default 4.
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
	// results is the result cache: the newest retained done job of each
	// cacheable (spec, seed, scale).
	results map[cacheKey]*Job

	// pool is the shared cell scheduler every locally run cell goes
	// through.
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
		cfg:     cfg,
		mux:     http.NewServeMux(),
		jobs:    map[string]*Job{},
		queue:   make(chan *Job, cfg.QueueDepth+extra),
		results: map[cacheKey]*Job{},
		store:   st,
		pool:    campaign.NewPool(cfg.Shards * runtime.GOMAXPROCS(0)),
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
			switch j.state {
			case StateQueued:
				// As after a DELETE, the shard that pops it skips it.
				s.terminateLocked(j, StateCanceled, "canceled before start", nil)
			case StateRunning:
				j.canceled = true
				j.cancel()
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
	if j.state.terminal() {
		// Cancelled while queued, and committed then: it never starts.
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
	state, errText := StateDone, ""
	switch {
	case j.canceled:
		state, errText = StateCanceled, "canceled"
	case err != nil:
		state, errText = StateFailed, err.Error()
	default:
		var env bytes.Buffer
		cfg := experiments.Config{Seed: j.Seed, Scale: j.Scale}
		if encErr := experiments.WriteEnvelope(&env, j.SpecName, cfg, out); encErr != nil {
			state, errText = StateFailed, encErr.Error()
			break
		}
		j.result = env.Bytes()
	}
	s.terminateLocked(j, state, errText, out)
}

// runLocal executes the missing cells in this process, on the shared
// pool. Each cell's result and stat land in the job as the cell
// finishes — journaled first when the job is persisted, so the status
// never counts a cell a restart would have to re-run. Returns the pool
// size; the error is the pool's refusal to run at all.
func (s *Server) runLocal(ctx context.Context, j *Job, missing []int) (int, error) {
	if len(missing) == 0 {
		return 1, nil // recovered with every cell journaled
	}
	sub := j.spec // the pool does not gather; runJob's AssembleOutcome does
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
	out, err := s.pool.RunContext(ctx, sub, opts)
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

// terminateLocked is the one way a job ends: it moves j to a terminal
// state, attaches its manifest (out is nil for a job that never ran),
// snapshots it when persisted, and retains it — a done cacheable job
// becomes its key's cache entry — evicting beyond the retention bound.
// Every job reaches it exactly once, at the moment it ends. Caller
// holds s.mu.
func (s *Server) terminateLocked(j *Job, st State, errText string, out *campaign.Outcome) {
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
	s.attachManifestLocked(j, out)
	s.persistTerminalLocked(j)
	s.retainLocked(j)
	for len(s.done) > s.cfg.Retain {
		s.evictOldestLocked()
	}
	s.recomputeOldestLocked()
}

// retainLocked appends a terminal job to the retention window; a done
// cacheable job becomes the newest cache entry for its key. Caller
// holds s.mu.
func (s *Server) retainLocked(j *Job) {
	s.jobs[j.ID] = j
	s.done = append(s.done, j.ID)
	if j.state == StateDone && j.cacheable {
		s.results[j.cacheKey()] = j
	}
}

// attachManifestLocked records the job's obs manifest (and writes it to
// ManifestDir when configured). Caller holds s.mu.
func (s *Server) attachManifestLocked(j *Job, out *campaign.Outcome) {
	labels := []string{"job", j.ID, "spec", j.SpecName}
	if j.cached {
		labels = append(labels, "cached", "true")
	}
	m := obs.NewManifest("serverd", labels)
	m.Date = j.finished.UTC().Format(time.RFC3339)
	m.Seed, m.Scale = j.Seed, j.Scale
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
	// Seed defaults to the server's DefaultSeed, Scale to 1.
	Seed  *int64  `json:"seed,omitempty"`
	Scale float64 `json:"scale,omitempty"`
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

	j := newJob(name, spec, seed, scale)
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
// POST /v1/replay: drain check, result-cache lookup (a hit on a
// retained done job is born done without consuming queue or shard
// capacity), then queue admission with 429 backpressure.
func (s *Server) admit(w http.ResponseWriter, j *Job) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is draining"})
		return
	}
	if j.cacheable {
		if hit := s.results[j.cacheKey()]; hit != nil {
			// Cache hit: the job is born done, serving the retained job's
			// envelope without consuming queue or shard capacity. Its
			// snapshot, written before the 202, is its only record.
			s.seq++
			j.ID = fmt.Sprintf("job-%06d", s.seq)
			j.cached = true
			j.started = j.created
			j.cellsDone = len(j.spec.Cells)
			j.result = hit.result
			s.terminateLocked(j, StateDone, "", nil)
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
	// The envelope has one form, so any query — such as the timings
	// query older servers answered — would be a knob that does nothing.
	if r.URL.RawQuery != "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "the result route takes no query parameters (run timings are in the manifest)"})
		return
	}
	s.mu.Lock()
	state, errText, body := j.state, j.err, j.result
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
		// Committed now, so the 202 is durable; the shard that pops the
		// queued entry skips it.
		s.terminateLocked(j, StateCanceled, "canceled before start", nil)
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
