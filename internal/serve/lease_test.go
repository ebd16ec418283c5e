package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rhohammer/internal/campaign"
)

// startWorkers runs n in-process Workers against a coordinator until
// test cleanup. Tests must wait for their jobs to finish before
// returning — cleanup stops the workers before the server drains.
func startWorkers(t *testing.T, ts *httptest.Server, reg *campaign.Registry, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Coordinator: ts.URL,
			Registry:    reg,
			Name:        fmt.Sprintf("node-%d", i),
			Poll:        5 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// standaloneEnvelope runs a spec to completion on a plain
// (non-coordinator) server and returns its canonical result bytes.
func standaloneEnvelope(t *testing.T, reg *campaign.Registry, body string) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{Registry: reg})
	id := submit(t, ts, body)
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("standalone job = %s (%s)", st.State, st.Error)
	}
	code, data := fetch(t, ts.URL+st.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("standalone result = %d", code)
	}
	return data
}

// TestLeaseLifecycle walks the wire protocol by hand: register,
// acquire, renew, complete, and every error path API.md documents.
func TestLeaseLifecycle(t *testing.T) {
	reg := tinyRegistry()
	want := standaloneEnvelope(t, reg, `{"spec":"tiny","seed":7}`)

	_, ts := newTestServer(t, Config{Registry: reg, Coordinator: true, LeaseBatch: 2, LeaseTTL: 30 * time.Second})

	// Register a worker; the coordinator assigns the ID and shares its TTL.
	var wr registerResponse
	code, _ := doJSON(t, "POST", ts.URL+"/v1/workers", `{"name":"handwork"}`, &wr)
	if code != http.StatusCreated || wr.ID == "" || wr.LeaseTTLNS != int64(30*time.Second) {
		t.Fatalf("register = %d %+v", code, wr)
	}

	// No jobs yet: acquiring returns 204 No Content.
	code, _ = doJSON(t, "POST", ts.URL+"/v1/leases", `{"worker":"`+wr.ID+`"}`, nil)
	if code != http.StatusNoContent {
		t.Fatalf("lease with no work = %d, want 204", code)
	}
	// And an unregistered acquire is a 400.
	code, _ = doJSON(t, "POST", ts.URL+"/v1/leases", `{}`, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("lease without worker = %d, want 400", code)
	}

	id := submit(t, ts, `{"spec":"tiny","seed":7}`)

	// Drain the job two cells at a time, exactly as a worker would.
	entry, _ := reg.Lookup("tiny")
	spec := entry.Build(campaign.Params{Seed: 7, Scale: 1})
	seen := map[string]bool{}
	for lease := 0; lease < 2; lease++ {
		var grant leaseGrant
		code, _ = doJSON(t, "POST", ts.URL+"/v1/leases", `{"worker":"`+wr.ID+`"}`, &grant)
		if code != http.StatusCreated {
			t.Fatalf("lease %d = %d, want 201", lease, code)
		}
		if grant.JobID != id || grant.Spec != "tiny" || grant.Seed != 7 || grant.Scale != 1 {
			t.Fatalf("grant = %+v", grant)
		}
		if len(grant.Cells) != 2 {
			t.Fatalf("grant %d has %d cells, want the batch bound 2", lease, len(grant.Cells))
		}

		// Renewing an active lease extends the deadline.
		var rn renewResponse
		code, _ = doJSON(t, "POST", ts.URL+"/v1/leases/"+grant.LeaseID+"/renew", `{}`, &rn)
		if code != http.StatusOK || rn.Deadline == "" {
			t.Fatalf("renew = %d %+v", code, rn)
		}

		// Execute the granted cells with the derived seeds and post back.
		comp := completeRequest{Worker: wr.ID}
		for _, c := range grant.Cells {
			if seen[c.Key] {
				t.Fatalf("cell %s leased twice", c.Key)
			}
			seen[c.Key] = true
			result, err := spec.Exec(spec.Cells[c.Index], spec.CellSeed(c.Key))
			if err != nil {
				t.Fatal(err)
			}
			data, err := campaign.EncodeResult(result)
			if err != nil {
				t.Fatal(err)
			}
			comp.Cells = append(comp.Cells, completedCell{
				Index: c.Index, Key: c.Key, Result: data,
				Stat: campaign.CellStat{Key: c.Key, Seed: spec.CellSeed(c.Key), Attempts: 1},
			})
		}
		body, _ := jsonBody(comp)
		code, _ = doJSON(t, "POST", ts.URL+"/v1/leases/"+grant.LeaseID+"/complete", body, nil)
		if code != http.StatusOK {
			t.Fatalf("complete %d = %d, want 200", lease, code)
		}
	}

	// All four cells completed over the wire: the job finishes and the
	// merged envelope is byte-identical to the standalone run.
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job = %s (%s)", st.State, st.Error)
	}
	code, got := fetch(t, ts.URL+st.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged envelope differs from standalone:\n got: %s\nwant: %s", got, want)
	}

	// The manifest records which node ran each cell.
	_, manifest := fetch(t, ts.URL+st.ManifestURL)
	if !strings.Contains(string(manifest), `"node": "`+wr.ID+`"`) || !strings.Contains(string(manifest), `"nodes"`) {
		t.Errorf("manifest missing node records: %s", manifest)
	}

	// Worker listing reflects the work done.
	var workers []workerStatus
	code, _ = doJSON(t, "GET", ts.URL+"/v1/workers", "", &workers)
	if code != http.StatusOK || len(workers) != 1 || workers[0].Cells != 4 || workers[0].Leases != 2 {
		t.Errorf("GET /v1/workers = %d %+v", code, workers)
	}

	// Exhausted queue: 204 again. Stale lease IDs: 410 on both routes.
	code, _ = doJSON(t, "POST", ts.URL+"/v1/leases", `{"worker":"`+wr.ID+`"}`, nil)
	if code != http.StatusNoContent {
		t.Errorf("lease after completion = %d, want 204", code)
	}
	code, _ = doJSON(t, "POST", ts.URL+"/v1/leases/lease-999999/renew", `{}`, nil)
	if code != http.StatusGone {
		t.Errorf("renew unknown lease = %d, want 410", code)
	}
	code, _ = doJSON(t, "POST", ts.URL+"/v1/leases/lease-999999/complete", `{"worker":"`+wr.ID+`","cells":[]}`, nil)
	if code != http.StatusGone {
		t.Errorf("complete unknown lease = %d, want 410", code)
	}
}

// TestLeaseReclaimFaultInjection kills a worker mid-lease: a client
// that acquires cells and silently dies (never renews, never
// completes). The coordinator must reclaim the cells at the deadline,
// re-lease them to a live worker, and still produce the byte-identical
// envelope — the fabric's whole failure-tolerance story.
func TestLeaseReclaimFaultInjection(t *testing.T) {
	reg := tinyRegistry()
	want := standaloneEnvelope(t, reg, `{"spec":"tiny","seed":7}`)

	_, ts := newTestServer(t, Config{
		Registry: reg, Coordinator: true,
		LeaseBatch: 2, LeaseTTL: 100 * time.Millisecond,
	})

	// The doomed worker grabs a lease and vanishes.
	var dead registerResponse
	doJSON(t, "POST", ts.URL+"/v1/workers", `{"name":"doomed"}`, &dead)
	id := submit(t, ts, `{"spec":"tiny","seed":7}`)
	var grant leaseGrant
	code, _ := doJSON(t, "POST", ts.URL+"/v1/leases", `{"worker":"`+dead.ID+`"}`, &grant)
	if code != http.StatusCreated || len(grant.Cells) != 2 {
		t.Fatalf("doomed lease = %d %+v", code, grant)
	}

	// A healthy worker joins; after the TTL passes, the dead worker's
	// cells are re-leased to it and the job completes.
	startWorkers(t, ts, reg, 1)
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job after reclaim = %s (%s)", st.State, st.Error)
	}
	code, got := fetch(t, ts.URL+st.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("envelope after reclaim differs from standalone:\n got: %s\nwant: %s", got, want)
	}

	// The dead worker rising from the grave gets 410 — its lease was
	// reclaimed, its late results are discarded.
	code, _ = doJSON(t, "POST", ts.URL+"/v1/leases/"+grant.LeaseID+"/renew", `{}`, nil)
	if code != http.StatusGone {
		t.Errorf("late renew = %d, want 410", code)
	}
	code, _ = doJSON(t, "POST", ts.URL+"/v1/leases/"+grant.LeaseID+"/complete", `{"worker":"`+dead.ID+`","cells":[]}`, nil)
	if code != http.StatusGone {
		t.Errorf("late complete = %d, want 410", code)
	}
}

// TestLeaseCompleteRejectsBadBodyWholesale: a completion that fails
// validation part-way — a cell reported twice, or a valid cell followed
// by a mismatched key — is a 400 that changes nothing. No cell counts
// as done and the lease stays held, so a correct completion of the same
// lease still lands and the job finishes with the standalone bytes
// instead of wedging with cells in neither the pending queue nor a
// lease.
func TestLeaseCompleteRejectsBadBodyWholesale(t *testing.T) {
	reg := tinyRegistry()
	want := standaloneEnvelope(t, reg, `{"spec":"tiny","seed":7}`)
	// Drained only once the job is done: a wedged job would block Drain
	// forever, and the test must fail instead of hanging.
	s, err := New(Config{Registry: reg, Coordinator: true, LeaseBatch: 4, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wr registerResponse
	doJSON(t, "POST", ts.URL+"/v1/workers", `{"name":"sloppy"}`, &wr)
	id := submit(t, ts, `{"spec":"tiny","seed":7}`)
	grant := acquireLease(t, ts, wr.ID)
	if len(grant.Cells) != 4 {
		t.Fatalf("grant has %d cells, want all 4", len(grant.Cells))
	}

	entry, _ := reg.Lookup("tiny")
	spec := entry.Build(campaign.Params{Seed: 7, Scale: 1})
	cells := make([]completedCell, 2)
	for i, c := range grant.Cells[:2] {
		result, err := spec.Exec(spec.Cells[c.Index], spec.CellSeed(c.Key))
		if err != nil {
			t.Fatal(err)
		}
		data, err := campaign.EncodeResult(result)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = completedCell{Index: c.Index, Key: c.Key, Result: data,
			Stat: campaign.CellStat{Key: c.Key, Seed: spec.CellSeed(c.Key), Attempts: 1}}
	}
	wrongKey := cells[1]
	wrongKey.Key = "not-" + wrongKey.Key
	for name, bad := range map[string][]completedCell{
		"duplicate cell":             {cells[0], cells[0]},
		"mismatched key after valid": {cells[0], wrongKey},
	} {
		body, _ := jsonBody(completeRequest{Worker: wr.ID, Cells: bad})
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/leases/"+grant.LeaseID+"/complete", body, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: complete = %d, want 400", name, code)
		}
		var st jobStatus
		doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "", &st)
		if st.CellsDone != 0 {
			t.Errorf("%s: rejected completion applied %d cells", name, st.CellsDone)
		}
		var workers []workerStatus
		doJSON(t, "GET", ts.URL+"/v1/workers", "", &workers)
		if len(workers) != 1 || workers[0].LeasesHeld != 1 {
			t.Errorf("%s: workers = %+v, want the lease still held", name, workers)
		}
	}

	completeGrant(t, ts, reg, wr.ID, grant)
	fin := waitTerminal(t, ts, id)
	if fin.State != StateDone {
		t.Fatalf("job = %s (%s)", fin.State, fin.Error)
	}
	if code, got := fetch(t, ts.URL+fin.ResultURL); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("result = %d, equal to standalone %v", code, bytes.Equal(got, want))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestDistributedCancel: DELETE on a distributed job with no workers
// must cancel promptly — pending cells are withdrawn, nothing hangs.
func TestDistributedCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: tinyRegistry(), Coordinator: true})
	id := submit(t, ts, `{"spec":"tiny","seed":7}`)
	// No workers exist, so the job sits with all cells pending.
	time.Sleep(10 * time.Millisecond)
	code, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, "", nil)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE = %d", code)
	}
	st := waitTerminal(t, ts, id)
	if st.State != StateCanceled {
		t.Errorf("state = %s, want canceled", st.State)
	}
}

// TestWorkerSubSpecVerification: a worker must refuse a grant whose
// cells don't match its local registry build (registry skew).
func TestWorkerSubSpecVerification(t *testing.T) {
	w := &Worker{Registry: tinyRegistry()}
	if _, err := w.subSpec(&leaseGrant{Spec: "nope", Seed: 7, Scale: 1}); err == nil {
		t.Error("unknown spec accepted")
	}
	if _, err := w.subSpec(&leaseGrant{Spec: "tiny", Seed: 7, Scale: 1,
		Cells: []leaseCell{{Index: 0, Key: "wrong"}}}); err == nil || !strings.Contains(err.Error(), "skew") {
		t.Errorf("key mismatch: %v", err)
	}
	if _, err := w.subSpec(&leaseGrant{Spec: "tiny", Seed: 7, Scale: 1,
		Cells: []leaseCell{{Index: 99, Key: "a"}}}); err == nil {
		t.Error("out-of-range index accepted")
	}
	sub, err := w.subSpec(&leaseGrant{Spec: "tiny", Seed: 7, Scale: 1,
		Cells: []leaseCell{{Index: 2, Key: "c"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Cells) != 1 || sub.Cells[0].Key != "c" || sub.CellSeed("c") == 0 {
		t.Errorf("sub-spec = %+v", sub.Cells)
	}
}

// jsonBody marshals a request body for doJSON.
func jsonBody(v any) (string, error) {
	data, err := json.Marshal(v)
	return string(data), err
}
