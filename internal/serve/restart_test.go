package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rhohammer/internal/campaign"
	"rhohammer/internal/store"
)

// completeGrant executes a grant's cells against a locally rebuilt spec
// and posts the completion, exactly as a live worker would.
func completeGrant(t *testing.T, ts *httptest.Server, reg *campaign.Registry, workerID string, grant *leaseGrant) {
	t.Helper()
	entry, _ := reg.Lookup(grant.Spec)
	spec := entry.Build(campaign.Params{Seed: grant.Seed, Scale: grant.Scale})
	comp := completeRequest{Worker: workerID}
	for _, c := range grant.Cells {
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
	code, _ := doJSON(t, "POST", ts.URL+"/v1/leases/"+grant.LeaseID+"/complete", body, nil)
	if code != http.StatusOK {
		t.Fatalf("complete = %d, want 200", code)
	}
}

// acquireLease polls POST /v1/leases until the coordinator grants one
// (the job may not have reached the distributor yet).
func acquireLease(t *testing.T, ts *httptest.Server, workerID string) *leaseGrant {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var grant leaseGrant
		code, _ := doJSON(t, "POST", ts.URL+"/v1/leases", `{"worker":"`+workerID+`"}`, &grant)
		switch code {
		case http.StatusCreated:
			return &grant
		case http.StatusNoContent:
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("lease = %d", code)
		}
	}
	t.Fatal("no lease granted")
	return nil
}

// TestRestartRecoveryDeterminism is the durability pin: a coordinator
// accepts a job, workers complete half the cells over the wire, and the
// coordinator is killed without any shutdown courtesy (the store is
// closed as a crash would leave it). A fresh coordinator on the same
// store directory must resume the job, re-lease only the incomplete
// cells, and publish an envelope byte-identical to an uninterrupted
// standalone run — and a further restart must keep serving the terminal
// result from its snapshot.
func TestRestartRecoveryDeterminism(t *testing.T) {
	reg := tinyRegistry()
	want := standaloneEnvelope(t, reg, `{"spec":"tiny","seed":7}`)
	cfg := Config{
		Registry: reg, Coordinator: true, StoreDir: t.TempDir(),
		LeaseBatch: 2, LeaseTTL: 30 * time.Second,
	}

	// Incarnation 1: half the job completes, then the process "dies".
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	var wr registerResponse
	doJSON(t, "POST", ts1.URL+"/v1/workers", `{"name":"pre-crash"}`, &wr)
	id := submit(t, ts1, `{"spec":"tiny","seed":7}`)
	grant := acquireLease(t, ts1, wr.ID)
	if len(grant.Cells) != 2 {
		t.Fatalf("grant has %d cells, want the batch bound 2", len(grant.Cells))
	}
	completeGrant(t, ts1, reg, wr.ID, grant)
	var st jobStatus
	if code, _ := doJSON(t, "GET", ts1.URL+"/v1/jobs/"+id, "", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !st.Persisted || st.Recovered || st.CellsDone != 2 {
		t.Fatalf("pre-crash status = %+v, want persisted with 2 cells done", st)
	}
	s1.crash()
	ts1.Close()

	// Incarnation 2: the job comes back with its completed cells intact
	// and finishes on fresh workers.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	code, _ := doJSON(t, "GET", ts2.URL+"/v1/jobs/"+id, "", &st)
	if code != http.StatusOK {
		t.Fatalf("recovered status = %d", code)
	}
	if !st.Recovered || !st.Persisted || st.CellsDone != 2 || st.State.terminal() {
		t.Fatalf("recovered status = %+v, want in-flight with 2 cells recovered", st)
	}
	startWorkers(t, ts2, reg, 2)
	fin := waitTerminal(t, ts2, id)
	if fin.State != StateDone {
		t.Fatalf("recovered job = %s (%s)", fin.State, fin.Error)
	}
	code, got := fetch(t, ts2.URL+fin.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-restart envelope differs from standalone:\n got: %s\nwant: %s", got, want)
	}
	s2.crash()
	ts2.Close()

	// Incarnation 3: the terminal job is served from its snapshot, and
	// its envelope has re-warmed the result cache.
	_, ts3 := newTestServer(t, cfg)
	code, _ = doJSON(t, "GET", ts3.URL+"/v1/jobs/"+id, "", &st)
	if code != http.StatusOK || st.State != StateDone || !st.Recovered || st.CellsDone != 4 {
		t.Fatalf("snapshot status = %d %+v, want recovered done job", code, st)
	}
	code, got = fetch(t, ts3.URL+st.ResultURL)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("snapshot result = %d, bytes equal %v", code, bytes.Equal(got, want))
	}
	id2 := submit(t, ts3, `{"spec":"tiny","seed":7}`)
	if st2 := waitTerminal(t, ts3, id2); !st2.Cached {
		t.Errorf("resubmission after restart not served from cache: %+v", st2)
	}
	if id2 == id {
		t.Errorf("job ID sequence not advanced past recovered IDs: %s", id2)
	}
}

// TestResumeLocalRunDeterminism covers the non-coordinator resume path:
// a journal holding a half-complete local job is replayed by a plain
// server, which must execute only the missing cells and assemble the
// byte-identical envelope.
func TestResumeLocalRunDeterminism(t *testing.T) {
	reg := tinyRegistry()
	want := standaloneEnvelope(t, reg, `{"spec":"tiny","seed":7}`)

	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000005"
	if err := st.AppendJob(store.JobMeta{
		ID: id, Spec: "tiny", Seed: 7, Scale: 1, Created: time.Unix(0, 42).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	entry, _ := reg.Lookup("tiny")
	spec := entry.Build(campaign.Params{Seed: 7, Scale: 1})
	for _, idx := range []int{1, 3} {
		key := spec.Cells[idx].Key
		seed := spec.CellSeed(key)
		result, execErr := spec.Exec(spec.Cells[idx], seed)
		if execErr != nil {
			t.Fatal(execErr)
		}
		data, encErr := campaign.EncodeResult(result)
		if encErr != nil {
			t.Fatal(encErr)
		}
		if err := st.AppendCell(id, store.CellResult{
			Index: idx, Key: key, Node: "w-gone",
			Stat:   campaign.CellStat{Key: key, Seed: seed, Attempts: 1},
			Result: data,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Registry: reg, StoreDir: dir})
	fin := waitTerminal(t, ts, id)
	if fin.State != StateDone || !fin.Recovered || !fin.Persisted || fin.CellsDone != 4 {
		t.Fatalf("resumed job = %+v, want recovered done job with 4 cells", fin)
	}
	code, got := fetch(t, ts.URL+fin.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed envelope differs from standalone:\n got: %s\nwant: %s", got, want)
	}
}

// TestRecoveryUnknownSpecFailsLoud: a journaled job whose spec is no
// longer in the registry cannot be rebuilt. It must fail terminally —
// visible in the API, snapshotted so the journal stops carrying it —
// without blocking jobs that can recover.
func TestRecoveryUnknownSpecFailsLoud(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob(store.JobMeta{
		ID: "job-000001", Spec: "retired", Seed: 1, Scale: 1, Created: time.Unix(0, 42).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJob(store.JobMeta{
		ID: "job-000002", Spec: "tiny", Seed: 7, Scale: 1, Created: time.Unix(0, 43).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg := tinyRegistry()
	_, ts := newTestServer(t, Config{Registry: reg, StoreDir: dir})

	ghost := waitTerminal(t, ts, "job-000001")
	if ghost.State != StateFailed || ghost.Error == "" {
		t.Fatalf("unknown-spec job = %+v, want failed with explanatory error", ghost)
	}
	if want := `"retired"`; !bytes.Contains([]byte(ghost.Error), []byte(want)) {
		t.Errorf("error %q does not name the missing spec", ghost.Error)
	}
	survivor := waitTerminal(t, ts, "job-000002")
	if survivor.State != StateDone || !survivor.Recovered {
		t.Errorf("recoverable job held hostage: %+v", survivor)
	}

	// A restart must not resurrect the failed job as in-flight: its
	// failure was snapshotted.
	_, recovered, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range recovered.Jobs {
		if j.Meta.ID == "job-000001" {
			t.Errorf("failed job still journaled as in-flight")
		}
	}
	found := false
	for _, snap := range recovered.Snapshots {
		if snap.ID == "job-000001" && snap.State == string(StateFailed) {
			found = true
		}
	}
	if !found {
		t.Errorf("failed job has no terminal snapshot")
	}
}

// TestRestartSnapshotWithoutDoneRecord: a store holding a job record,
// every cell and a snapshot but no done record — the snapshot is the
// terminal commit point — must bring the job back terminal, once. With
// Retain 3, two new jobs must leave it servable.
func TestRestartSnapshotWithoutDoneRecord(t *testing.T) {
	reg := tinyRegistry()
	want := standaloneEnvelope(t, reg, `{"spec":"tiny","seed":7}`)

	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000001"
	created := time.Unix(0, 42).UTC()
	if err := st.AppendJob(store.JobMeta{ID: id, Spec: "tiny", Seed: 7, Scale: 1, Created: created}); err != nil {
		t.Fatal(err)
	}
	entry, _ := reg.Lookup("tiny")
	spec := entry.Build(campaign.Params{Seed: 7, Scale: 1})
	for idx, cell := range spec.Cells {
		seed := spec.CellSeed(cell.Key)
		result, execErr := spec.Exec(cell, seed)
		if execErr != nil {
			t.Fatal(execErr)
		}
		data, encErr := campaign.EncodeResult(result)
		if encErr != nil {
			t.Fatal(encErr)
		}
		if err := st.AppendCell(id, store.CellResult{
			Index: idx, Key: cell.Key,
			Stat:   campaign.CellStat{Key: cell.Key, Seed: seed, Attempts: 1},
			Result: data,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot(&store.Snapshot{
		ID: id, Spec: "tiny", Seed: 7, Scale: 1, State: string(StateDone),
		CellsTotal: len(spec.Cells), CellsDone: len(spec.Cells),
		Created: created, Started: created, Finished: time.Unix(0, 43).UTC(),
		Canonical: want,
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Registry: reg, StoreDir: dir, Retain: 3})
	if fin := waitTerminal(t, ts, id); fin.State != StateDone || !fin.Recovered {
		t.Fatalf("recovered job = %+v, want recovered done job", fin)
	}
	for _, body := range []string{`{"spec":"tiny","seed":8}`, `{"spec":"tiny","seed":9}`} {
		if fin := waitTerminal(t, ts, submit(t, ts, body)); fin.State != StateDone {
			t.Fatalf("new job = %s (%s)", fin.State, fin.Error)
		}
	}
	code, got := fetch(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result of the recovered job after two new jobs under Retain 3 = %d, want 200", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered envelope differs from standalone:\n got: %s\nwant: %s", got, want)
	}
}

// TestEvictRecoveredSnapshotReopens: a snapshot-recovered job's journal
// records were compacted away at boot, so evicting it must only delete
// its snapshot. A done record naming it would make the next Open fail
// with ErrUnknownJob.
func TestEvictRecoveredSnapshotReopens(t *testing.T) {
	reg := tinyRegistry()
	dir := t.TempDir()

	s1, err := New(Config{Registry: reg, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	old := submit(t, ts1, `{"spec":"tiny","seed":7}`)
	if fin := waitTerminal(t, ts1, old); fin.State != StateDone {
		t.Fatalf("first job = %s (%s)", fin.State, fin.Error)
	}
	s1.crash()
	ts1.Close()

	// The second boot recovers the job from its snapshot alone; one new
	// job under Retain 1 evicts it.
	s2, err := New(Config{Registry: reg, StoreDir: dir, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	fresh := submit(t, ts2, `{"spec":"tiny","seed":8}`)
	if fin := waitTerminal(t, ts2, fresh); fin.State != StateDone {
		t.Fatalf("new job = %s (%s)", fin.State, fin.Error)
	}
	if code, _ := fetch(t, ts2.URL+"/v1/jobs/"+old); code != http.StatusNotFound {
		t.Fatalf("evicted job = %d, want 404", code)
	}
	s2.crash()
	ts2.Close()

	_, state, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store does not reopen after evicting a snapshot-recovered job: %v", err)
	}
	if len(state.Jobs) != 0 || len(state.Warnings) != 0 || len(state.Snapshots) != 1 || state.Snapshots[0].ID != fresh {
		t.Fatalf("reopened store = jobs %d, warnings %v, snapshots %d; want only %s's snapshot",
			len(state.Jobs), state.Warnings, len(state.Snapshots), fresh)
	}
}

// TestWorkerDrainRoute walks POST /v1/workers/{name}/drain: resolution
// by ID and by unique name, 404 for strangers, 409 for ambiguous names,
// and the core behavior — a draining worker is refused leases even when
// cells are pending, while a healthy worker still gets them.
func TestWorkerDrainRoute(t *testing.T) {
	reg := tinyRegistry()
	_, ts := newTestServer(t, Config{Registry: reg, Coordinator: true, LeaseBatch: 2, LeaseTTL: 30 * time.Second})

	var alpha, dup1, dup2 registerResponse
	doJSON(t, "POST", ts.URL+"/v1/workers", `{"name":"alpha"}`, &alpha)
	doJSON(t, "POST", ts.URL+"/v1/workers", `{"name":"dup"}`, &dup1)
	doJSON(t, "POST", ts.URL+"/v1/workers", `{"name":"dup"}`, &dup2)

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/workers/ghost/drain", "", nil); code != http.StatusNotFound {
		t.Errorf("drain unknown worker = %d, want 404", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/workers/dup/drain", "", nil); code != http.StatusConflict {
		t.Errorf("drain ambiguous name = %d, want 409", code)
	}
	var ws workerStatus
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/workers/alpha/drain", "", &ws); code != http.StatusOK || !ws.Draining || ws.ID != alpha.ID {
		t.Fatalf("drain by name = %d %+v", code, ws)
	}
	// Idempotent, and IDs resolve too.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/workers/"+alpha.ID+"/drain", "", &ws); code != http.StatusOK || !ws.Draining {
		t.Fatalf("drain by ID = %d %+v", code, ws)
	}

	// Work arrives; the healthy worker leases half and holds it, so
	// cells are verifiably pending when the draining worker asks.
	id := submit(t, ts, `{"spec":"tiny","seed":7}`)
	grant := acquireLease(t, ts, dup1.ID)
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/leases", `{"worker":"`+alpha.ID+`"}`, nil); code != http.StatusNoContent {
		t.Errorf("draining worker acquired work: %d, want 204", code)
	}

	// The listing shows who is draining and who holds leases.
	var list []workerStatus
	doJSON(t, "GET", ts.URL+"/v1/workers", "", &list)
	byID := map[string]workerStatus{}
	for _, w := range list {
		byID[w.ID] = w
	}
	if !byID[alpha.ID].Draining || byID[dup1.ID].Draining {
		t.Errorf("draining flags wrong in listing: %+v", list)
	}
	if byID[dup1.ID].LeasesHeld != 1 || byID[alpha.ID].LeasesHeld != 0 {
		t.Errorf("leases_held wrong in listing: %+v", list)
	}

	// The job still completes through the healthy worker.
	completeGrant(t, ts, reg, dup1.ID, grant)
	completeGrant(t, ts, reg, dup1.ID, acquireLease(t, ts, dup1.ID))
	if fin := waitTerminal(t, ts, id); fin.State != StateDone {
		t.Errorf("job with draining worker = %s (%s)", fin.State, fin.Error)
	}
}

// TestWorkerClientBeginDrain: BeginDrain makes Run return nil once idle
// and flips the coordinator-side draining flag so no further leases are
// offered in the meantime.
func TestWorkerClientBeginDrain(t *testing.T) {
	reg := tinyRegistry()
	_, ts := newTestServer(t, Config{Registry: reg, Coordinator: true})
	w := &Worker{Coordinator: ts.URL, Registry: reg, Name: "leaver", Poll: 2 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	deadline := time.Now().Add(10 * time.Second)
	for w.ID() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.ID() == "" {
		t.Fatal("worker never registered")
	}
	w.BeginDrain(context.Background())
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained Run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit after BeginDrain")
	}
	var list []workerStatus
	doJSON(t, "GET", ts.URL+"/v1/workers", "", &list)
	if len(list) != 1 || !list[0].Draining {
		t.Errorf("coordinator not told about the drain: %+v", list)
	}
}

// TestStoreGaugesExposed: the queue-depth gauges land in /metrics with
// live values.
func TestStoreGaugesExposed(t *testing.T) {
	reg := tinyRegistry()
	_, ts := newTestServer(t, Config{Registry: reg, Coordinator: true, LeaseTTL: 30 * time.Second})
	id := submit(t, ts, `{"spec":"tiny","seed":7}`)

	// With no workers, all four cells sit pending.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := fetch(t, ts.URL+"/metrics")
		if bytes.Contains(body, []byte("rhohammer_serve_pending_cells 4")) {
			if !bytes.Contains(body, []byte("rhohammer_serve_oldest_pending_seconds")) {
				t.Errorf("oldest-pending gauge missing:\n%s", body)
			}
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("pending-cells gauge never reached 4:\n%s", body)
		}
		time.Sleep(2 * time.Millisecond)
	}

	startWorkers(t, ts, reg, 1)
	if fin := waitTerminal(t, ts, id); fin.State != StateDone {
		t.Fatalf("job = %s", fin.State)
	}
	_, body := fetch(t, ts.URL+"/metrics")
	if !bytes.Contains(body, []byte("rhohammer_serve_pending_cells 0")) {
		t.Errorf("pending-cells gauge not drained:\n%s", body)
	}
}
