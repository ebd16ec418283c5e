package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"rhohammer/internal/campaign"
)

// Worker is the fabric's data plane: a client that registers with a
// coordinator, leases batches of cells, executes them locally against
// its own copy of the registry, and posts gob-encoded results back.
// Determinism needs nothing from the worker beyond the obvious: it
// rebuilds the spec from (name, seed, scale) — both binaries embed the
// same registry — verifies each leased cell's key, and runs the cells
// with the seeds those keys derive. Where a cell runs can then never
// change what it computes.
//
// A renewer goroutine heartbeats each lease at a third of its TTL; if
// the worker dies instead, the coordinator reclaims the lease at its
// deadline and re-leases the cells elsewhere (see SCALING.md).
type Worker struct {
	// Coordinator is the coordinator's base URL (e.g.
	// "http://127.0.0.1:8077"). Required.
	Coordinator string
	// Registry resolves leased spec names. It must be the same registry
	// the coordinator serves — the experiments registry in serverd.
	// Required.
	Registry *campaign.Registry
	// Name is the worker's human-readable label in GET /v1/workers and
	// manifests. Optional.
	Name string
	// Parallel sizes the worker's campaign.Pool, which runs every leased
	// batch for the worker's whole lifetime (0 = GOMAXPROCS). Batch
	// size is the coordinator's LeaseBatch alone.
	Parallel int
	// Poll is how long to sleep when the coordinator has no work.
	// Default 200ms.
	Poll time.Duration
	// Client is the HTTP client used for every call; nil means
	// http.DefaultClient.
	Client *http.Client

	// id is atomic because BeginDrain and ID are meant to be called
	// from outside the Run goroutine (signal handlers, tests) while
	// registration may still be in flight.
	id  atomic.Pointer[string]
	ttl time.Duration

	// draining is set by BeginDrain: Run finishes the lease it is
	// serving (if any) and then acquires no more.
	draining atomic.Bool
}

// Run registers the worker and processes leases until ctx is
// cancelled, which is the only non-error way out. Transient coordinator
// failures (connection refused, 5xx) are retried with the poll delay;
// the first successful registration pins the worker's ID and the
// coordinator's lease TTL.
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" || w.Registry == nil {
		return errors.New("serve: Worker needs Coordinator and Registry")
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	pool := campaign.NewPool(w.Parallel)
	defer pool.Close()
	for w.ID() == "" {
		if err := w.register(ctx); err != nil {
			if sleepErr := sleepCtx(ctx, poll); sleepErr != nil {
				return sleepErr
			}
			continue
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			// BeginDrain: any in-flight lease has already been served to
			// completion by the time the loop comes back around, so the
			// worker is idle and can exit cleanly.
			return nil
		}
		grant, err := w.acquire(ctx)
		if err != nil || grant == nil {
			// No work (204) and transient errors look the same from the
			// loop: wait and ask again.
			if sleepErr := sleepCtx(ctx, poll); sleepErr != nil {
				return sleepErr
			}
			continue
		}
		w.serve(ctx, pool, grant)
	}
}

// ID returns the coordinator-assigned worker ID ("" before
// registration succeeds).
func (w *Worker) ID() string {
	if p := w.id.Load(); p != nil {
		return *p
	}
	return ""
}

// BeginDrain asks the worker to wind down: Run finishes whatever lease
// it is currently serving, acquires no more, and returns nil. When the
// worker has registered, the coordinator is also told (best-effort) so
// it stops offering this worker leases immediately rather than at the
// worker's next acquire — the operator-facing equivalent is
// POST /v1/workers/{name}/drain (see OPERATIONS.md). Idempotent.
func (w *Worker) BeginDrain(ctx context.Context) {
	if w.draining.Swap(true) {
		return
	}
	if id := w.ID(); id != "" {
		_, _ = w.call(ctx, "POST", "/v1/workers/"+id+"/drain", struct{}{}, nil)
	}
}

// register performs POST /v1/workers, adopting the assigned ID and the
// coordinator's lease TTL.
func (w *Worker) register(ctx context.Context) error {
	var resp registerResponse
	code, err := w.call(ctx, "POST", "/v1/workers", registerRequest{Name: w.Name}, &resp)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("serve: register: coordinator returned %d", code)
	}
	w.ttl = time.Duration(resp.LeaseTTLNS)
	w.id.Store(&resp.ID)
	return nil
}

// acquire performs POST /v1/leases; nil grant means no work (204).
func (w *Worker) acquire(ctx context.Context) (*leaseGrant, error) {
	var grant leaseGrant
	code, err := w.call(ctx, "POST", "/v1/leases", acquireRequest{Worker: w.ID()}, &grant)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusCreated:
		return &grant, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("serve: lease: coordinator returned %d", code)
	}
}

// serve executes one granted lease end to end: rebuild the sub-spec,
// heartbeat while running, post completion. Failures inside a cell are
// reported through the cell's stat; a lost lease (410) means the
// results belong to nobody and are dropped.
func (w *Worker) serve(ctx context.Context, pool *campaign.Pool, grant *leaseGrant) {
	sub, err := w.subSpec(grant)
	if err != nil {
		// A spec mismatch is unrecoverable for this lease; let it expire
		// so the coordinator re-leases (possibly to a compatible worker).
		log.Printf("serve: worker %s: refusing lease %s of spec %q (job %s): %v",
			w.ID(), grant.LeaseID, grant.Spec, grant.JobID, err)
		return
	}

	// Renew at a third of the TTL until execution finishes. A failed
	// renewal (coordinator restart, lease reclaimed) stops the
	// heartbeat; completion will then get 410 and drop the batch.
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	go w.renewLoop(renewCtx, grant.LeaseID)

	out, _ := pool.RunContext(ctx, sub, campaign.RunOpts{})
	stopRenew()
	if out == nil {
		// Validation failure only; nothing to report.
		return
	}

	req := completeRequest{Worker: w.ID()}
	for i := range sub.Cells {
		cc := completedCell{Index: grant.Cells[i].Index, Key: grant.Cells[i].Key, Stat: out.Cells[i]}
		if out.Cells[i].Err == "" {
			data, encErr := campaign.EncodeResult(out.Results[i])
			if encErr != nil {
				cc.Stat.Err = encErr.Error()
			} else {
				cc.Result = data
			}
		}
		req.Cells = append(req.Cells, cc)
	}
	// Completion is best-effort: on 410 the lease expired and the cells
	// are already back in the pending queue; a re-run elsewhere is
	// byte-identical, so dropping this batch is safe.
	w.call(ctx, "POST", "/v1/leases/"+grant.LeaseID+"/complete", req, nil)
}

// subSpec rebuilds the leased sub-grid: the full spec from the
// registry at the grant's (seed, scale), narrowed to the granted cells,
// with every key cross-checked — a registry skew between coordinator
// and worker must fail loudly, not compute wrong cells.
func (w *Worker) subSpec(grant *leaseGrant) (campaign.Spec, error) {
	entry, ok := w.Registry.Lookup(grant.Spec)
	if !ok {
		return campaign.Spec{}, fmt.Errorf("serve: leased spec %q not in worker registry", grant.Spec)
	}
	full := entry.Build(campaign.Params{Seed: grant.Seed, Scale: grant.Scale})
	sub := full
	sub.Cells = nil
	for _, c := range grant.Cells {
		if c.Index < 0 || c.Index >= len(full.Cells) {
			return campaign.Spec{}, fmt.Errorf("serve: leased cell index %d out of range for %q", c.Index, grant.Spec)
		}
		if full.Cells[c.Index].Key != c.Key {
			return campaign.Spec{}, fmt.Errorf("serve: leased cell %d key %q != local %q (registry skew?)", c.Index, c.Key, full.Cells[c.Index].Key)
		}
		sub.Cells = append(sub.Cells, full.Cells[c.Index])
	}
	return sub, nil
}

// renewLoop heartbeats one lease until its context is cancelled or a
// renewal is refused.
func (w *Worker) renewLoop(ctx context.Context, leaseID string) {
	interval := w.ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			code, err := w.call(ctx, "POST", "/v1/leases/"+leaseID+"/renew", struct{}{}, nil)
			if err == nil && code != http.StatusOK {
				return // lease gone; completion will 410 and drop
			}
		}
	}
}

// call issues one JSON request against the coordinator, decoding a
// JSON response body into out when non-nil and the status is 2xx.
func (w *Worker) call(ctx context.Context, method, path string, body, out any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, method, w.Coordinator+path, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	client := w.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// sleepCtx sleeps for d or until ctx is done, returning ctx's error in
// the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
