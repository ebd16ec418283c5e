package serve

import (
	"context"
	"fmt"
	"log"

	"rhohammer/internal/campaign"
	"rhohammer/internal/store"
)

// Durability integration (OPERATIONS.md is the runbook view). With
// Config.StoreDir set, every registered-spec job commits its life to
// the durable store: admission (persistAdmitLocked) and each
// successfully completed cell (persistCell — locally executed cells
// are journaled from the pool's OnCell hook, which carries the
// result; leased cells reuse the wire gob bytes the worker posted)
// are journal records; the terminal transition is the atomic snapshot
// alone (persistTerminalLocked, called by terminateLocked the moment
// the job ends), so a crash before its rename recovers the job as
// in-flight with its journaled cells, converging to the same terminal
// state. A cache hit, born done, is never journaled: its snapshot is
// its only record. Retention eviction (evictOldestLocked) journals a
// done record for a journaled job and then deletes the snapshot.
// recoverState is the other half: New replays the store into servable
// terminal jobs and re-queued in-flight jobs before the shard pool
// starts.

// Metrics returns the name of every serve-layer metric series exposed
// at GET /metrics — the admission counters, the cache counters, the
// scaling gauges, and the lease-fabric counters. OPERATIONS.md must
// document each of them; the doccheck suite pins that, so a metric
// added here cannot ship unexplained.
func Metrics() []string {
	return []string{
		"rhohammer_serve_jobs_accepted_total",
		"rhohammer_serve_jobs_rejected_total",
		"rhohammer_serve_jobs_completed_total",
		"rhohammer_serve_jobs_failed_total",
		"rhohammer_serve_jobs_canceled_total",
		"rhohammer_serve_result_cache_hits_total",
		"rhohammer_serve_result_cache_misses_total",
		"rhohammer_serve_queue_depth",
		"rhohammer_serve_jobs_running",
		"rhohammer_serve_pending_cells",
		"rhohammer_serve_oldest_pending_seconds",
		"rhohammer_lease_grants_total",
		"rhohammer_lease_renewals_total",
		"rhohammer_lease_completions_total",
		"rhohammer_lease_reclaims_total",
		"rhohammer_lease_cells_leased_total",
		"rhohammer_lease_expired_completions_total",
	}
}

// recoverState folds everything Open recovered from the store into the
// server: snapshots become the retention window (and so the result
// cache), in-flight journal jobs are rebuilt against the registry and
// re-queued with their completed cells prefilled. Runs before the
// shard pool starts, so nothing races admission.
func (s *Server) recoverState(state *store.State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, warn := range state.Warnings {
		log.Printf("serve: store recovery: %s", warn)
	}

	// Snapshots arrive in finish order. Every persisted job ran a
	// registered spec, so each is cacheable without rebuilding it; a
	// resubmission of a spec this registry lacks is refused before the
	// cache is consulted.
	for _, snap := range state.Snapshots {
		s.bumpSeqLocked(snap.ID)
		s.retainLocked(&Job{
			ID: snap.ID, SpecName: snap.Spec, Seed: snap.Seed, Scale: snap.Scale,
			state: State(snap.State), err: snap.Error,
			cacheable: true, persisted: true, recovered: true,
			created: snap.Created, started: snap.Started, finished: snap.Finished,
			cellsTotal: snap.CellsTotal, cellsDone: snap.CellsDone,
			result: snap.Canonical, manifest: snap.Manifest,
		})
	}
	for len(s.done) > s.cfg.Retain {
		s.evictOldestLocked()
	}

	for _, sj := range state.Jobs {
		s.bumpSeqLocked(sj.Meta.ID)
		entry, ok := s.cfg.Registry.Lookup(sj.Meta.Spec)
		if !ok {
			// Loud skip: this job cannot be rebuilt, but the jobs that
			// can must not be held hostage. It fails terminally — and is
			// snapshotted as failed, so the journal stops carrying it.
			log.Printf("serve: store recovery: job %s names spec %q absent from the registry; failing it (other jobs recover)",
				sj.Meta.ID, sj.Meta.Spec)
			j := &Job{
				ID: sj.Meta.ID, SpecName: sj.Meta.Spec, Seed: sj.Meta.Seed, Scale: sj.Meta.Scale,
				persisted: true, recovered: true, journaled: true,
				created:   sj.Meta.Created,
				cellsDone: len(sj.Cells),
			}
			s.terminateLocked(j, StateFailed,
				fmt.Sprintf("recovered job names spec %q, absent from this server's registry", sj.Meta.Spec), nil)
			continue
		}
		spec := entry.Build(campaign.Params{Seed: sj.Meta.Seed, Scale: sj.Meta.Scale})
		j := newJob(sj.Meta.Spec, spec, sj.Meta.Seed, sj.Meta.Scale)
		j.ID, j.created = sj.Meta.ID, sj.Meta.Created
		j.cacheable, j.distributable, j.persisted, j.recovered, j.journaled = true, true, true, true, true
		// Prefill the merge arrays from the journal: runJob runs or
		// leases only the cells left without a result.
		for idx, cell := range sj.Cells {
			if idx < 0 || idx >= len(spec.Cells) || spec.Cells[idx].Key != cell.Key {
				log.Printf("serve: store recovery: job %s cell %d/%s does not match the rebuilt spec; re-running it",
					j.ID, idx, cell.Key)
				continue
			}
			if cell.Stat.Err != "" {
				continue
			}
			v, err := campaign.DecodeResult(cell.Result)
			if err == nil {
				// A result the spec cannot gather is as unreadable as
				// one that does not decode: it would fail the job.
				err = spec.CheckResult(v)
			}
			if err != nil {
				log.Printf("serve: store recovery: job %s cell %s result unreadable; re-running it: %v",
					j.ID, cell.Key, err)
				continue
			}
			if v == nil {
				// A nil result is indistinguishable from "never ran";
				// re-running it is deterministic either way.
				continue
			}
			j.results[idx], j.cellStats[idx], j.cellNodes[idx] = v, cell.Stat, cell.Node
			j.cellsDone++
		}
		s.jobs[j.ID] = j
		s.queue <- j // capacity reserved by New; never blocks
		s.queued.Add(1)
		log.Printf("serve: store recovery: job %s (%s) resumed with %d/%d cells complete",
			j.ID, j.SpecName, j.cellsDone, len(spec.Cells))
	}
	s.recomputeOldestLocked()
}

// bumpSeqLocked advances the job-ID sequence past a recovered ID so
// new admissions never collide with recovered jobs. Caller holds s.mu.
func (s *Server) bumpSeqLocked(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
}

// recomputeOldestLocked refreshes the oldest-pending gauge source: the
// creation time of the oldest non-terminal job, 0 when none. Caller
// holds s.mu; the gauge itself reads only the atomic.
func (s *Server) recomputeOldestLocked() {
	var oldest int64
	for _, j := range s.jobs {
		if j.state.terminal() {
			continue
		}
		if ns := j.created.UnixNano(); oldest == 0 || ns < oldest {
			oldest = ns
		}
	}
	s.oldestPending.Store(oldest)
}

// persistAdmitLocked journals a newly admitted persisted job; the
// fsync inside AppendJob is the commit point that makes the 202
// acknowledgment durable. A store failure demotes the job to
// non-persisted (loudly) rather than failing admission. Caller holds
// s.mu.
func (s *Server) persistAdmitLocked(j *Job) {
	if s.store == nil || !j.persisted {
		return
	}
	err := s.store.AppendJob(store.JobMeta{
		ID: j.ID, Spec: j.SpecName, Seed: j.Seed, Scale: j.Scale,
		Created: j.created,
	})
	if err != nil {
		j.persisted = false
		log.Printf("serve: job %s will not survive a restart: %v", j.ID, err)
		return
	}
	j.journaled = true
}

// persistCell journals one successfully completed cell. raw, when
// non-nil, is the campaign wire gob exactly as a worker posted it and
// is reused byte-for-byte; otherwise v (a locally computed result) is
// encoded here. Store failures are logged, never fatal — the cell
// would simply re-run after a restart, byte-identically.
func (s *Server) persistCell(jobID string, index int, node string, stat campaign.CellStat, v any, raw []byte) {
	if s.store == nil {
		return
	}
	data := raw
	if data == nil {
		var err error
		if data, err = campaign.EncodeResult(v); err != nil {
			log.Printf("serve: job %s cell %s not journaled: %v", jobID, stat.Key, err)
			return
		}
	}
	err := s.store.AppendCell(jobID, store.CellResult{
		Index: index, Key: stat.Key, Node: node, Stat: stat, Result: data,
	})
	if err != nil {
		log.Printf("serve: job %s cell %s not journaled: %v", jobID, stat.Key, err)
	}
}

// persistTerminalLocked snapshots a terminal persisted job. The
// snapshot's rename is the job's terminal commit point: a crash before
// it recovers the job as in-flight with every journaled cell, which
// converges to the same terminal state on resume. A job the journal
// does not carry (a cache hit) has no other record, so a failed write
// demotes it to non-persisted, as a failed admission append does.
// Caller holds s.mu.
func (s *Server) persistTerminalLocked(j *Job) {
	if s.store == nil || !j.persisted {
		return
	}
	snap := &store.Snapshot{
		ID: j.ID, Spec: j.SpecName, Seed: j.Seed, Scale: j.Scale,
		State: string(j.state), Error: j.err,
		CellsTotal: max(len(j.spec.Cells), j.cellsTotal), CellsDone: j.cellsDone,
		Created: j.created, Started: j.started, Finished: j.finished,
		Canonical: j.result, Manifest: j.manifest,
	}
	if err := s.store.WriteSnapshot(snap); err != nil {
		if !j.journaled {
			j.persisted = false
			log.Printf("serve: job %s will not survive a restart: %v", j.ID, err)
			return
		}
		log.Printf("serve: job %s snapshot not written: %v", j.ID, err)
	}
}

// evictOldestLocked drops the oldest retained terminal job from memory
// and from the store. A job the current journal introduced gets a done
// record first, so the next boot reads its missing snapshot as an
// eviction; if that append fails the snapshot stays, and the next
// boot's retention trims it. Caller holds s.mu.
func (s *Server) evictOldestLocked() {
	id := s.done[0]
	s.done = s.done[1:]
	j := s.jobs[id]
	delete(s.jobs, id)
	// Retention is FIFO by finish time, so no older job with this key is
	// still retained once the newest is evicted.
	if k := j.cacheKey(); s.results[k] == j {
		delete(s.results, k)
	}
	if s.store == nil || !j.persisted {
		return
	}
	if j.journaled {
		if err := s.store.AppendDone(id, string(j.state), j.err); err != nil {
			log.Printf("serve: evicting job %s: done record not written, keeping its snapshot: %v", id, err)
			return
		}
	}
	if err := s.store.DeleteSnapshot(id); err != nil {
		log.Printf("serve: evicting job %s: %v", id, err)
	}
}

// crash simulates coordinator death for the restart tests: the store
// is closed first — as in a real crash, no further journal or snapshot
// writes land — then every job is cancelled and the machinery torn
// down. Only tests call it; a production exit is Drain.
func (s *Server) crash() {
	s.mu.Lock()
	if s.store != nil {
		s.store.Close()
	}
	s.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
}
