package serve

import (
	"context"
	"time"

	"rhohammer/internal/campaign"
)

// State is a job's lifecycle phase. Transitions only move forward:
// queued → running → {done, failed}, and queued/running → canceled.
type State string

const (
	// StateQueued means the job is admitted but no shard has picked it
	// up yet.
	StateQueued State = "queued"
	// StateRunning means a shard is executing the job's campaign.
	StateRunning State = "running"
	// StateDone means the campaign completed and the result envelope is
	// available.
	StateDone State = "done"
	// StateFailed means the campaign returned an error (the partial
	// per-cell stats are still reported).
	StateFailed State = "failed"
	// StateCanceled means DELETE reached the job before it finished.
	StateCanceled State = "canceled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one admitted campaign execution. All mutable fields are
// guarded by the owning Server's mutex; the HTTP handlers only ever see
// snapshots (jobStatus) taken under it.
type Job struct {
	ID       string
	SpecName string
	Seed     int64
	Scale    float64

	state    State
	err      string
	canceled bool // cancellation requested (DELETE observed)
	cancel   context.CancelFunc

	// cacheable marks jobs that, once done and while retained, answer
	// resubmissions of their key from the result cache (registered
	// specs and replays; inline specs have no stable identity). cached
	// marks jobs that were served from it — born done, never queued.
	cacheable bool
	cached    bool
	// distributable marks jobs a coordinator may lease to worker nodes:
	// registered specs only, since a worker rebuilds the spec from
	// (name, seed, scale) against its own registry.
	distributable bool
	// persisted marks jobs committed to the durable store (registered
	// specs on a server configured with StoreDir): every commit point —
	// admission, each completed cell, the terminal snapshot — is
	// fsynced before it is acknowledged, so a restart resumes the job.
	// recovered marks jobs reloaded from the store by a restarted
	// server rather than submitted over HTTP in this process's
	// lifetime. Both surface in the status body (API.md).
	persisted bool
	recovered bool
	// journaled marks persisted jobs whose job record is in the store's
	// current journal: admitted or resumed since the store was opened.
	// Evicting one journals a done record before its snapshot goes; a
	// snapshot-recovered job's records were compacted away and a cache
	// hit never had any, so their eviction only deletes the snapshot.
	journaled bool

	created  time.Time
	started  time.Time
	finished time.Time

	spec campaign.Spec
	// cellsTotal overrides len(spec.Cells) in the status body for
	// snapshot-recovered jobs, whose spec is not rebuilt; 0 defers to
	// the spec.
	cellsTotal int
	cellsDone  int
	// results, cellStats and cellNodes are index-aligned with
	// spec.Cells: the job's merge arrays. results holds each completed
	// cell's result — recovery prefills the cells the journal shows
	// complete, and runJob runs or leases only the nil entries; it is
	// released when the job turns terminal. cellStats' Key and Seed are
	// prefilled by newJob (both are pure functions of the spec), so the
	// status endpoint can show the full grid with per-cell progress
	// before and during the run. cellNodes names the worker that
	// completed each leased cell ("" for cells run in this process).
	results   []any
	cellStats []campaign.CellStat
	cellNodes []string

	// result holds the canonical envelope (scheduling noise zeroed),
	// manifest the per-job obs manifest with the run's timings. Both
	// are set exactly once, at completion.
	result   []byte
	manifest []byte
	// trace holds the job's per-session obs trace dump (JSONL, capture
	// format), captured while the job ran and served at
	// GET /v1/jobs/{id}/trace. Empty for cached and replay jobs, which
	// execute no hammer sessions.
	trace []byte
}

// newJob builds a queued job over spec, with its merge arrays sized to
// the grid and every cell's stat prefilled with its key and seed.
func newJob(name string, spec campaign.Spec, seed int64, scale float64) *Job {
	n := len(spec.Cells)
	j := &Job{
		SpecName: name, Seed: seed, Scale: scale,
		state: StateQueued, created: time.Now(), spec: spec,
		results:   make([]any, n),
		cellStats: make([]campaign.CellStat, n),
		cellNodes: make([]string, n),
	}
	for i, c := range spec.Cells {
		j.cellStats[i] = campaign.CellStat{Key: c.Key, Seed: spec.CellSeed(c.Key)}
	}
	return j
}

// jobStatus is the GET /v1/jobs/{id} response body.
type jobStatus struct {
	ID    string  `json:"id"`
	Spec  string  `json:"spec"`
	State State   `json:"state"`
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`

	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`

	CellsTotal int                 `json:"cells_total"`
	CellsDone  int                 `json:"cells_done"`
	Cells      []campaign.CellStat `json:"cells,omitempty"`

	Error       string `json:"error,omitempty"`
	Cached      bool   `json:"cached,omitempty"`
	Persisted   bool   `json:"persisted,omitempty"`
	Recovered   bool   `json:"recovered,omitempty"`
	ResultURL   string `json:"result_url,omitempty"`
	ManifestURL string `json:"manifest_url,omitempty"`
	TraceURL    string `json:"trace_url,omitempty"`
}

// status snapshots the job for the status endpoint. Caller holds the
// server mutex.
func (j *Job) status() jobStatus {
	st := jobStatus{
		ID:         j.ID,
		Spec:       j.SpecName,
		State:      j.state,
		Seed:       j.Seed,
		Scale:      j.Scale,
		Created:    j.created.UTC().Format(time.RFC3339Nano),
		CellsTotal: max(len(j.spec.Cells), j.cellsTotal),
		CellsDone:  j.cellsDone,
		Error:      j.err,
		Cached:     j.cached,
		Persisted:  j.persisted,
		Recovered:  j.recovered,
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	st.Cells = make([]campaign.CellStat, len(j.cellStats))
	copy(st.Cells, j.cellStats)
	if j.state == StateDone {
		st.ResultURL = "/v1/jobs/" + j.ID + "/result"
	}
	if j.manifest != nil {
		st.ManifestURL = "/v1/jobs/" + j.ID + "/manifest"
	}
	if len(j.trace) > 0 {
		st.TraceURL = "/v1/jobs/" + j.ID + "/trace"
	}
	return st
}
