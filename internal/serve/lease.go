package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"rhohammer/internal/campaign"
	"rhohammer/internal/obs"
)

// Coordinator mode: the distributed campaign fabric's control plane
// (SCALING.md is the design document, API.md the wire contract).
//
// A coordinator does not execute registered-spec cells itself. Each
// distributable job's cells enter a pending queue; worker nodes lease
// batches of them (POST /v1/leases), execute them locally with the
// exact per-cell seeds the coordinator derives, and post back
// gob-encoded results (POST /v1/leases/{id}/complete). Leases carry a
// deadline: a worker that stops renewing (crash, partition) forfeits
// its lease and the cells return to the pending queue for re-lease —
// work is re-run, never lost, and because cell seeds derive from
// stable keys the re-run is bit-identical to what the dead worker
// would have produced. Leasing is only the placement step of the one
// job pipeline (runJob): completed cells land in the job's merge arrays
// and campaign.AssembleOutcome merges them exactly as it merges a local
// run, so the canonical envelope is byte-identical to a standalone run
// at any node count.

// Lease-layer counters (cold path, unconditional like the serve ones).
var (
	leaseExpired = obs.Default.Counter("rhohammer_lease_expired_completions_total")
)

// CoordinatorRoutes returns the additional route patterns a
// coordinator-mode server registers, in API.md order. The doccheck
// suite pins that API.md documents each of them, exactly like Routes.
func CoordinatorRoutes() []string {
	return []string{
		"POST /v1/workers",
		"GET /v1/workers",
		"POST /v1/workers/{name}/drain",
		"POST /v1/leases",
		"POST /v1/leases/{id}/renew",
		"POST /v1/leases/{id}/complete",
	}
}

// distJob is one job's leased cells in flight. All fields are guarded
// by the owning Server's mutex; completed cells land in the job's own
// merge arrays.
type distJob struct {
	job *Job
	// pending is the ordered queue of cell indices awaiting lease
	// (lowest index out first — initial fill, reclaims and restarts all
	// converge on the same front-to-back schedule). Every mutation goes
	// through the push/pop helpers so the pending-cells gauge stays
	// exact.
	pending campaign.CellQueue

	remaining int
	finished  chan struct{}
}

// lease is one outstanding batch of cells granted to a worker.
type lease struct {
	id      string
	dj      *distJob
	worker  string
	cells   []int
	expires time.Time
}

// workerInfo is the coordinator's view of one registered worker.
type workerInfo struct {
	id         string
	name       string
	registered time.Time
	lastSeen   time.Time
	leases     int // leases ever granted
	cells      int // cells completed
	// draining marks a worker being rolled out: it keeps its held
	// leases (renew and complete still work) but acquire returns 204,
	// so it winds down to zero and can exit cleanly (OPERATIONS.md).
	draining bool
}

// registerRequest is the POST /v1/workers body.
type registerRequest struct {
	// Name is a human-readable label for listings and manifests; the
	// coordinator assigns the authoritative worker ID.
	Name string `json:"name,omitempty"`
}

// registerResponse is the POST /v1/workers success body. The worker
// adopts the coordinator's lease TTL so both sides agree on deadlines.
type registerResponse struct {
	ID         string `json:"id"`
	LeaseTTLNS int64  `json:"lease_ttl_ns"`
}

// workerStatus is one GET /v1/workers entry (and the drain-route
// response body).
type workerStatus struct {
	ID         string `json:"id"`
	Name       string `json:"name,omitempty"`
	Registered string `json:"registered"`
	LastSeen   string `json:"last_seen"`
	Leases     int    `json:"leases"`
	Cells      int    `json:"cells_completed"`
	Draining   bool   `json:"draining,omitempty"`
	LeasesHeld int    `json:"leases_held"`
}

// leaseCell is one cell of a lease grant: the index into the spec's
// grid and the stable key the worker must verify before executing.
type leaseCell struct {
	Index int    `json:"index"`
	Key   string `json:"key"`
}

// acquireRequest is the POST /v1/leases body. The grant's batch size
// is the coordinator's LeaseBatch alone.
type acquireRequest struct {
	Worker string `json:"worker"`
}

// leaseGrant is the POST /v1/leases success body: everything a worker
// needs to rebuild the sub-grid locally — the registered spec name plus
// seed and scale reproduce the exact Spec, and each cell's key pins its
// derived seed.
type leaseGrant struct {
	LeaseID  string      `json:"lease_id"`
	JobID    string      `json:"job_id"`
	Spec     string      `json:"spec"`
	Seed     int64       `json:"seed"`
	Scale    float64     `json:"scale"`
	TTLNS    int64       `json:"ttl_ns"`
	Deadline string      `json:"deadline"`
	Cells    []leaseCell `json:"cells"`
}

// renewResponse is the POST /v1/leases/{id}/renew success body.
type renewResponse struct {
	Deadline string `json:"deadline"`
}

// completedCell is one executed cell in a completion body. Result is
// the campaign gob wire encoding (base64 in JSON); Stat carries the
// worker-side attempt/timing/error record.
type completedCell struct {
	Index  int               `json:"index"`
	Key    string            `json:"key"`
	Result []byte            `json:"result,omitempty"`
	Stat   campaign.CellStat `json:"stat"`
}

// completeRequest is the POST /v1/leases/{id}/complete body.
type completeRequest struct {
	Worker string          `json:"worker"`
	Cells  []completedCell `json:"cells"`
}

// runLeased executes the missing cells on worker nodes: they enter the
// pending queue, workers lease and complete them (handleLeaseComplete
// writes each into the job's merge arrays), and the call returns once
// every cell is complete or cancelled. Returns the number of nodes
// that completed cells of the job, at least 1.
func (s *Server) runLeased(ctx context.Context, j *Job, missing []int) int {
	dj := &distJob{job: j, remaining: len(missing), finished: make(chan struct{})}
	s.mu.Lock()
	s.pushPendingLocked(dj, missing...)
	if dj.remaining == 0 {
		close(dj.finished)
	}
	s.distQueue = append(s.distQueue, dj)
	s.mu.Unlock()

	select {
	case <-dj.finished:
	case <-ctx.Done():
		s.cancelDist(dj)
		<-dj.finished
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.distQueue = slices.DeleteFunc(s.distQueue, func(q *distJob) bool { return q == dj })
	nodes := map[string]bool{}
	for _, node := range j.cellNodes {
		if node != "" {
			nodes[node] = true
		}
	}
	return max(1, len(nodes))
}

// cancelDist withdraws a cancelled job's unfinished cells from the
// fabric: pending cells and outstanding leases both record the context
// error, and the leases are revoked so late completions get 410.
func (s *Server) cancelDist(dj *distJob) {
	errText := context.Canceled.Error()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, idx := range s.popPendingLocked(dj, dj.pending.Len()) {
		dj.job.cellStats[idx].Err = errText
		s.finishDistCellLocked(dj)
	}
	for id, l := range s.leases {
		if l.dj != dj {
			continue
		}
		for _, idx := range l.cells {
			dj.job.cellStats[idx].Err = errText
			s.finishDistCellLocked(dj)
		}
		delete(s.leases, id)
	}
}

// finishDistCellLocked marks one cell of a distributed job handled,
// closing finished on the last. Caller holds s.mu.
func (s *Server) finishDistCellLocked(dj *distJob) {
	dj.remaining--
	if dj.remaining == 0 {
		close(dj.finished)
	}
}

// pushPendingLocked / popPendingLocked are the only mutators of a
// distributed job's pending queue, keeping the pending-cells gauge
// (an atomic, so /metrics reads it without s.mu) exact. Caller holds
// s.mu.
func (s *Server) pushPendingLocked(dj *distJob, indices ...int) {
	before := dj.pending.Len()
	dj.pending.Push(indices...)
	s.pendingCells.Add(int64(dj.pending.Len() - before))
}

func (s *Server) popPendingLocked(dj *distJob, n int) []int {
	out := dj.pending.Pop(n)
	s.pendingCells.Add(-int64(len(out)))
	return out
}

// reclaimExpiredLocked returns every expired lease's cells to their
// job's pending queue for re-lease. Deadline-based reclaim is the
// fabric's whole failure story: a worker that dies mid-lease simply
// stops renewing, and its cells are re-run elsewhere with the same
// derived seeds — byte-identical results, nothing lost. Caller holds
// s.mu.
func (s *Server) reclaimExpiredLocked(now time.Time) {
	for id, l := range s.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(s.leases, id)
		// The ordered queue puts reclaimed low indices back at the
		// front, so the post-reclaim lease schedule matches what an
		// uninterrupted run would have handed out next.
		s.pushPendingLocked(l.dj, l.cells...)
		obs.LeaseReclaims.Inc()
	}
}

// janitor periodically reclaims expired leases so re-lease does not
// wait for the next worker call. It runs until the server finishes
// draining — reclaim must stay live while distributed jobs drain, or a
// dead worker would wedge Drain forever.
func (s *Server) janitor(period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			s.reclaimExpiredLocked(time.Now())
			s.mu.Unlock()
		case <-stop:
			return
		}
	}
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid register request: " + err.Error()})
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.workerSeq++
	info := &workerInfo{
		id:         fmt.Sprintf("w-%03d", s.workerSeq),
		name:       req.Name,
		registered: now,
		lastSeen:   now,
	}
	s.workers[info.id] = info
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, registerResponse{ID: info.id, LeaseTTLNS: int64(s.cfg.LeaseTTL)})
}

// workerStatusLocked snapshots one worker for listings and the drain
// response, counting the leases it currently holds. Caller holds s.mu.
func (s *Server) workerStatusLocked(info *workerInfo) workerStatus {
	held := 0
	for _, l := range s.leases {
		if l.worker == info.id {
			held++
		}
	}
	return workerStatus{
		ID:         info.id,
		Name:       info.name,
		Registered: info.registered.UTC().Format(time.RFC3339Nano),
		LastSeen:   info.lastSeen.UTC().Format(time.RFC3339Nano),
		Leases:     info.leases,
		Cells:      info.cells,
		Draining:   info.draining,
		LeasesHeld: held,
	}
}

func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]workerStatus, 0, len(s.workers))
	for _, info := range s.workers {
		out = append(out, s.workerStatusLocked(info))
	}
	s.mu.Unlock()
	// Stable listing order for clients and tests.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].ID < out[k-1].ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleWorkerDrain marks one worker draining (addressed by its
// coordinator-assigned ID or, when unambiguous, its registered name):
// it keeps renewing and completing the leases it holds, but every
// subsequent acquire returns 204, so it winds down to zero leases and
// can be stopped without losing work. Draining is idempotent and
// one-way; a replacement worker simply registers fresh.
func (s *Server) handleWorkerDrain(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("name")
	s.mu.Lock()
	info := s.workers[key]
	if info == nil {
		var matches []*workerInfo
		for _, wi := range s.workers {
			if wi.name == key {
				matches = append(matches, wi)
			}
		}
		if len(matches) > 1 {
			s.mu.Unlock()
			writeJSON(w, http.StatusConflict,
				apiError{Error: fmt.Sprintf("%d workers are named %q; drain by ID (GET /v1/workers lists them)", len(matches), key)})
			return
		}
		if len(matches) == 1 {
			info = matches[0]
		}
	}
	if info == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such worker (GET /v1/workers lists them)"})
		return
	}
	info.draining = true
	st := s.workerStatusLocked(info)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req acquireRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid lease request: " + err.Error()})
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "\"worker\" is required (POST /v1/workers first)"})
		return
	}
	now := time.Now()

	s.mu.Lock()
	if info := s.workers[req.Worker]; info != nil {
		info.lastSeen = now
		if info.draining {
			// Draining workers finish what they hold but get no new
			// work — 204 is indistinguishable from "no work", so the
			// worker loop winds down without a special case.
			s.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
	s.reclaimExpiredLocked(now)
	var dj *distJob
	for _, q := range s.distQueue {
		if q.pending.Len() > 0 {
			dj = q
			break
		}
	}
	if dj == nil {
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	cells := s.popPendingLocked(dj, s.cfg.LeaseBatch)
	s.leaseSeq++
	l := &lease{
		id:      fmt.Sprintf("lease-%06d", s.leaseSeq),
		dj:      dj,
		worker:  req.Worker,
		cells:   cells,
		expires: now.Add(s.cfg.LeaseTTL),
	}
	s.leases[l.id] = l
	if info := s.workers[req.Worker]; info != nil {
		info.leases++
	}
	grant := leaseGrant{
		LeaseID:  l.id,
		JobID:    dj.job.ID,
		Spec:     dj.job.SpecName,
		Seed:     dj.job.Seed,
		Scale:    dj.job.Scale,
		TTLNS:    int64(s.cfg.LeaseTTL),
		Deadline: l.expires.UTC().Format(time.RFC3339Nano),
	}
	for _, idx := range cells {
		grant.Cells = append(grant.Cells, leaseCell{Index: idx, Key: dj.job.spec.Cells[idx].Key})
	}
	s.mu.Unlock()

	obs.LeaseGrants.Inc()
	obs.LeaseCellsLeased.Add(int64(len(cells)))
	writeJSON(w, http.StatusCreated, grant)
}

func (s *Server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	now := time.Now()
	s.mu.Lock()
	s.reclaimExpiredLocked(now)
	l := s.leases[id]
	if l == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusGone, apiError{Error: "lease expired or unknown; its cells may have been re-leased"})
		return
	}
	l.expires = now.Add(s.cfg.LeaseTTL)
	if info := s.workers[l.worker]; info != nil {
		info.lastSeen = now
	}
	deadline := l.expires
	s.mu.Unlock()
	obs.LeaseRenewals.Inc()
	writeJSON(w, http.StatusOK, renewResponse{Deadline: deadline.UTC().Format(time.RFC3339Nano)})
}

func (s *Server) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req completeRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid completion: " + err.Error()})
		return
	}
	// Decode the gob payloads before taking the server mutex: result
	// blobs can be large and decode cost must not serialize the API.
	decoded := make([]any, len(req.Cells))
	for i, c := range req.Cells {
		if c.Stat.Err != "" || len(c.Result) == 0 {
			continue
		}
		v, err := campaign.DecodeResult(c.Result)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("cell %s: %v", c.Key, err)})
			return
		}
		decoded[i] = v
	}

	now := time.Now()
	s.mu.Lock()
	s.reclaimExpiredLocked(now)
	l := s.leases[id]
	if l == nil {
		s.mu.Unlock()
		leaseExpired.Inc()
		writeJSON(w, http.StatusGone, apiError{Error: "lease expired or unknown; results discarded (cells will be re-run elsewhere, byte-identically)"})
		return
	}
	// Validate the whole body before touching any state, so a 400
	// changes nothing: the lease stays held, to be completed or
	// reclaimed like any other. Each reported cell must be one of the
	// lease's cells, with its key, at most once, and a successful one
	// must carry a result the spec can gather.
	dj, j := l.dj, l.dj.job
	leased := map[int]bool{}
	for _, idx := range l.cells {
		leased[idx] = true
	}
	for i, c := range req.Cells {
		if !leased[c.Index] || j.spec.Cells[c.Index].Key != c.Key {
			s.mu.Unlock()
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("cell %d/%s is not part of lease %s, or is reported twice", c.Index, c.Key, id)})
			return
		}
		if c.Stat.Err == "" {
			if err := j.spec.CheckResult(decoded[i]); err != nil {
				s.mu.Unlock()
				writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("cell %d/%s: %v", c.Index, c.Key, err)})
				return
			}
		}
		delete(leased, c.Index)
	}
	delete(s.leases, id)
	for i, c := range req.Cells {
		j.results[c.Index] = decoded[i]
		j.cellStats[c.Index] = c.Stat
		j.cellNodes[c.Index] = req.Worker
		j.cellsDone++
		if j.persisted && c.Stat.Err == "" {
			// Journal before acknowledging: the wire gob bytes are
			// reused as-is, so what recovery decodes is exactly what
			// this completion carried.
			s.persistCell(j.ID, c.Index, req.Worker, c.Stat, nil, c.Result)
		}
		s.finishDistCellLocked(dj)
	}
	// Cells the worker leased but did not report go straight back to
	// pending (a worker may return a partial batch after an error).
	for idx := range leased {
		s.pushPendingLocked(dj, idx)
	}
	if info := s.workers[req.Worker]; info != nil {
		info.lastSeen = now
		info.cells += len(req.Cells)
	}
	s.mu.Unlock()
	obs.LeaseCompletions.Inc()
	writeJSON(w, http.StatusOK, map[string]int{"accepted": len(req.Cells)})
}
