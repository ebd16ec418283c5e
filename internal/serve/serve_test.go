package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rhohammer/internal/campaign"
	"rhohammer/internal/experiments"
	"rhohammer/internal/obs"
	"rhohammer/internal/store"
)

// tinyRegistry registers one four-cell spec whose results are pure
// functions of the derived cell seeds — cheap and fully deterministic.
func tinyRegistry() *campaign.Registry {
	r := campaign.NewRegistry()
	r.Register(campaign.Entry{
		Name: "tiny", Kind: campaign.KindAux, Title: "four deterministic cells",
		Build: func(p campaign.Params) campaign.Spec {
			return campaign.Spec{
				Name: "tiny", Kind: campaign.KindAux, Seed: p.Seed,
				Cells: []campaign.Cell{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}},
				Exec: func(c campaign.Cell, seed int64) (any, error) {
					return fmt.Sprintf("%s#%d", c.Key, seed), nil
				},
			}
		},
	})
	return r
}

// tinyRow is typedRegistry's cell result.
type tinyRow struct {
	Key  string
	Seed int64
}

// typedRegistry registers "typed": tiny's four cells built with
// campaign.Grid, each returning a tinyRow, so a cell result of any
// other type fails the spec's check.
func typedRegistry() *campaign.Registry {
	r := campaign.NewRegistry()
	r.Register(campaign.Entry{
		Name: "typed", Kind: campaign.KindAux, Title: "four typed cells",
		Build: func(p campaign.Params) campaign.Spec {
			s := campaign.Grid([]campaign.Cell{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}},
				func(c campaign.Cell, seed int64) (tinyRow, error) { return tinyRow{c.Key, seed}, nil },
				func(rows []tinyRow) any { return rows })
			s.Name, s.Kind, s.Seed = "typed", campaign.KindAux, p.Seed
			return s
		},
	})
	return r
}

// captureLog sends the standard logger's output to the returned buffer
// until the test ends.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	return &buf
}

// blockingRegistry registers a one-cell spec that blocks until gate is
// closed, for backpressure and drain scenarios.
func blockingRegistry(gate chan struct{}) *campaign.Registry {
	r := campaign.NewRegistry()
	r.Register(campaign.Entry{
		Name: "block", Kind: campaign.KindAux, Title: "blocks until released",
		Build: func(p campaign.Params) campaign.Spec {
			return campaign.Spec{
				Name: "block", Seed: p.Seed,
				Cells: []campaign.Cell{{Key: "only"}},
				Exec: func(c campaign.Cell, seed int64) (any, error) {
					<-gate
					return "released", nil
				},
			}
		},
	})
	return r
}

// gatedRegistry registers a four-cell spec whose cells c and d block
// until gate is closed; count observes every Exec call by cell key.
func gatedRegistry(gate <-chan struct{}, count func(key string)) *campaign.Registry {
	r := campaign.NewRegistry()
	r.Register(campaign.Entry{
		Name: "gated", Kind: campaign.KindAux, Title: "two free cells, two gated",
		Build: func(p campaign.Params) campaign.Spec {
			return campaign.Spec{
				Name: "gated", Kind: campaign.KindAux, Seed: p.Seed,
				Cells: []campaign.Cell{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}},
				Exec: func(c campaign.Cell, seed int64) (any, error) {
					count(c.Key)
					if c.Key == "c" || c.Key == "d" {
						<-gate
					}
					return fmt.Sprintf("%s#%d", c.Key, seed), nil
				},
			}
		},
	})
	return r
}

// slowRegistry registers a many-cell spec where each cell sleeps, so a
// cancellation lands mid-run with cells still undispatched.
func slowRegistry(cells int, perCell time.Duration) *campaign.Registry {
	r := campaign.NewRegistry()
	r.Register(campaign.Entry{
		Name: "slow", Kind: campaign.KindAux, Title: "sleeping cells",
		Build: func(p campaign.Params) campaign.Spec {
			s := campaign.Spec{Name: "slow", Seed: p.Seed, Exec: func(c campaign.Cell, seed int64) (any, error) {
				time.Sleep(perCell)
				return seed, nil
			}}
			for i := 0; i < cells; i++ {
				s.Cells = append(s.Cells, campaign.Cell{Key: fmt.Sprintf("c%03d", i)})
			}
			return s
		},
	})
	return r
}

// newTestServer boots a Server and an httptest listener, draining both
// at cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// doJSON issues one request and decodes the JSON response into out
// (skipped when out is nil or the response is a bodiless 204),
// returning status code and headers.
func doJSON(t *testing.T, method, url, body string, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// submit posts a job body and returns the accepted job ID.
func submit(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	var acc jobAccepted
	code, hdr := doJSON(t, "POST", ts.URL+"/v1/jobs", body, &acc)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d, want 202", code)
	}
	if acc.ID == "" || hdr.Get("Location") != "/v1/jobs/"+acc.ID {
		t.Fatalf("bad accept response: %+v location %q", acc, hdr.Get("Location"))
	}
	return acc.ID
}

// waitTerminal polls a job until it leaves the queued/running states.
// Its budget guards against a hang, not a slow host: it runs to the
// test binary's deadline less a margin to report the job, or two
// minutes when there is no deadline.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	if d, ok := t.Deadline(); ok {
		deadline = d.Add(-10 * time.Second)
	}
	for {
		var st jobStatus
		code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "", &st)
		if code != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, code)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitRunning waits until the server's shards run n jobs.
func waitRunning(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.running.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("running jobs = %d, want %d", s.running.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// crashWhileBlocked crashes s while a job blocks on gate. crash closes
// the store before it starts draining, so once healthz reports
// draining, nothing the blocked job computes after gate opens can
// reach the store; the crash's drain then finishes.
func crashWhileBlocked(t *testing.T, s *Server, ts *httptest.Server, gate chan struct{}) {
	t.Helper()
	crashed := make(chan struct{})
	go func() {
		s.crash()
		close(crashed)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h healthStatus
		if code, _ := doJSON(t, "GET", ts.URL+"/healthz", "", &h); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crashed server never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-crashed
	ts.Close()
}

// fetch returns a raw response body and status code.
func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestJobLifecycleAndResultEnvelope(t *testing.T) {
	reg := tinyRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})

	id := submit(t, ts, `{"spec":"tiny","seed":7}`)
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	if st.CellsTotal != 4 || st.CellsDone != 4 {
		t.Errorf("cells = %d/%d, want 4/4", st.CellsDone, st.CellsTotal)
	}
	if st.ResultURL == "" || st.ManifestURL == "" {
		t.Errorf("missing result/manifest URLs in %+v", st)
	}
	for _, c := range st.Cells {
		if c.Attempts != 1 || c.Err != "" {
			t.Errorf("cell %s: attempts=%d err=%q", c.Key, c.Attempts, c.Err)
		}
	}

	// The served envelope must be byte-identical to writing a direct
	// campaign.Run outcome through the canonical exporter.
	entry, _ := reg.Lookup("tiny")
	out, err := campaign.Run(context.Background(), entry.Build(campaign.Params{Seed: 7, Scale: 1}), 2, campaign.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.WriteEnvelope(&want, "tiny", experiments.Config{Seed: 7, Scale: 1}, out); err != nil {
		t.Fatal(err)
	}
	code, got := fetch(t, ts.URL+st.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("served envelope differs from direct campaign.Run envelope:\n got: %s\nwant: %s", got, want.Bytes())
	}
	// The envelope has one form, so the route refuses any query.
	if code, _ := fetch(t, ts.URL+st.ResultURL+"?timings=true"); code != http.StatusBadRequest {
		t.Errorf("GET result with a query = %d, want 400", code)
	}

	// The manifest records the run: one RunRecord with all four cells,
	// the shared pool's workers, the run's wall time and every cell's.
	code, mdata := fetch(t, ts.URL+st.ManifestURL)
	if code != http.StatusOK {
		t.Fatalf("GET manifest = %d", code)
	}
	var m obs.Manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "serverd" || len(m.Runs) != 1 || len(m.Runs[0].Cells) != 4 || m.Seed != 7 {
		t.Fatalf("manifest = tool %q, %d runs, seed %d", m.Tool, len(m.Runs), m.Seed)
	}
	run := m.Runs[0]
	if want := 2 * runtime.GOMAXPROCS(0); run.Name != "tiny" || run.Workers != want || run.WallNS <= 0 {
		t.Errorf("manifest run = %s, %d workers, wall %dns; want tiny on the %d-worker shared pool", run.Name, run.Workers, run.WallNS, want)
	}
	for _, c := range run.Cells {
		if c.WallNS <= 0 || c.Seed == 0 {
			t.Errorf("manifest cell %s: wall %dns, seed %d", c.Key, c.WallNS, c.Seed)
		}
	}
}

// TestRetiredRequestFieldsRejected: placement is the server's alone,
// so a job or replay body that still names a worker count gets the
// unknown-field 400 rather than being ignored.
func TestRetiredRequestFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: tinyRegistry()})
	for _, c := range []struct{ path, body string }{
		{"/v1/jobs", `{"spec":"tiny","parallel":2}`},
		{"/v1/replay", `{"trace":"x","parallel":1}`},
	} {
		var e apiError
		code, _ := doJSON(t, "POST", ts.URL+c.path, c.body, &e)
		if code != http.StatusBadRequest || !strings.Contains(e.Error, "unknown field") {
			t.Errorf("POST %s %s = %d %q, want 400 unknown field", c.path, c.body, code, e.Error)
		}
	}
}

func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	srv, ts := newTestServer(t, Config{
		Registry: blockingRegistry(gate), Shards: 1, QueueDepth: 1,
		RetryAfter: 7 * time.Second,
	})

	a := submit(t, ts, `{"spec":"block"}`)
	// Wait for the shard to pop job A so B occupies the whole queue.
	waitRunning(t, srv, 1)
	b := submit(t, ts, `{"spec":"block"}`)

	var apiErr apiError
	code, hdr := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"spec":"block"}`, &apiErr)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third POST = %d, want 429", code)
	}
	if hdr.Get("Retry-After") != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", hdr.Get("Retry-After"))
	}
	if apiErr.Error == "" {
		t.Error("429 carried no error body")
	}

	close(gate)
	for _, id := range []string{a, b} {
		if st := waitTerminal(t, ts, id); st.State != StateDone {
			t.Errorf("job %s = %s, want done", id, st.State)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	srv, ts := newTestServer(t, Config{Registry: blockingRegistry(gate), Shards: 1, QueueDepth: 2})

	a := submit(t, ts, `{"spec":"block"}`)
	waitRunning(t, srv, 1)
	b := submit(t, ts, `{"spec":"block"}`)

	var st jobStatus
	code, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+b, "", &st)
	if code != http.StatusAccepted || st.State != StateCanceled {
		t.Fatalf("DELETE queued job = %d state %s, want 202 canceled", code, st.State)
	}
	if code, _ := fetch(t, ts.URL+"/v1/jobs/"+b+"/result"); code != http.StatusConflict {
		t.Errorf("result of canceled job = %d, want 409", code)
	}
	_ = a
}

func TestCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: slowRegistry(60, 10*time.Millisecond), Shards: 1})

	id := submit(t, ts, `{"spec":"slow"}`)
	// Let a few cells complete before cancelling.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st jobStatus
		doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "", &st)
		if st.CellsDone >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cells completed")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, "", nil); code != http.StatusAccepted {
		t.Fatalf("DELETE running job = %d, want 202", code)
	}
	st := waitTerminal(t, ts, id)
	if st.State != StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", st.State)
	}
	if st.CellsDone >= st.CellsTotal {
		t.Errorf("cancellation ran the whole grid (%d/%d cells)", st.CellsDone, st.CellsTotal)
	}
	var sawCtxErr bool
	for _, c := range st.Cells {
		if strings.Contains(c.Err, "context canceled") {
			sawCtxErr = true
		}
	}
	if !sawCtxErr {
		t.Error("no cell stat recorded the cancellation")
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, "", nil); code != http.StatusConflict {
		t.Errorf("DELETE of terminal job = %d, want 409", code)
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{Registry: blockingRegistry(gate), Shards: 1})

	id := submit(t, ts, `{"spec":"block","seed":3}`)

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()

	// Admission must stop while the in-flight job keeps running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h healthStatus
		code, _ := doJSON(t, "GET", ts.URL+"/healthz", "", &h)
		if code == http.StatusServiceUnavailable && h.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"spec":"block"}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", code)
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Results stay fetchable after the drain completes.
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job after drain = %s, want done", st.State)
	}
	if code, _ := fetch(t, ts.URL+st.ResultURL); code != http.StatusOK {
		t.Errorf("result after drain = %d, want 200", code)
	}
}

// TestLocalCellsJournaledAcrossCrash: a standalone server with a store
// journals each cell it executes itself, as the cell finishes. Crashed
// with two cells done and two in flight, a restarted server re-executes
// only the cells without a journal record, and its envelope matches an
// uninterrupted run.
func TestLocalCellsJournaledAcrossCrash(t *testing.T) {
	open := make(chan struct{})
	close(open)
	want := standaloneEnvelope(t, gatedRegistry(open, func(string) {}), `{"spec":"gated","seed":7}`)

	gate := make(chan struct{})
	cfg := Config{Registry: gatedRegistry(gate, func(string) {}), StoreDir: t.TempDir()}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	id := submit(t, ts1, `{"spec":"gated","seed":7}`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st jobStatus
		doJSON(t, "GET", ts1.URL+"/v1/jobs/"+id, "", &st)
		if st.CellsDone == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cells a and b never completed: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// The gated cells' results, computed after the gate opens, can no
	// longer reach the journal.
	crashWhileBlocked(t, s1, ts1, gate)

	var mu sync.Mutex
	reran := map[string]int{}
	cfg.Registry = gatedRegistry(open, func(key string) {
		mu.Lock()
		reran[key]++
		mu.Unlock()
	})
	_, ts2 := newTestServer(t, cfg)
	fin := waitTerminal(t, ts2, id)
	if fin.State != StateDone || !fin.Recovered || fin.CellsDone != 4 {
		t.Fatalf("resumed job = %+v, want recovered done job with 4 cells", fin)
	}
	mu.Lock()
	got := fmt.Sprint(reran)
	mu.Unlock()
	if got != "map[c:1 d:1]" {
		t.Errorf("restart executed %s, want only the unjournaled cells c and d, once each", got)
	}
	if code, body := fetch(t, ts2.URL+fin.ResultURL); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Errorf("resumed result = %d, equal to uninterrupted %v", code, bytes.Equal(body, want))
	}
}

// parentJournalCell computes cell i of the spec's grid at the given
// seed and returns it as the journal's cell record would carry it.
func parentJournalCell(t *testing.T, reg *campaign.Registry, name string, seed int64, i int) store.CellResult {
	t.Helper()
	entry, _ := reg.Lookup(name)
	spec := entry.Build(campaign.Params{Seed: seed, Scale: 1})
	c := spec.Cells[i]
	cellSeed := spec.CellSeed(c.Key)
	result, err := spec.Exec(c, cellSeed)
	if err != nil {
		t.Fatal(err)
	}
	data, err := campaign.EncodeResult(result)
	if err != nil {
		t.Fatal(err)
	}
	return store.CellResult{
		Index: i, Key: c.Key, Result: data,
		Stat: campaign.CellStat{Key: c.Key, Seed: cellSeed, Attempts: 1},
	}
}

// writeParentJournal writes dir's journal as raw lines in the format of
// a server that still took per-job parallelism: the job record carries
// "parallel", which that format wrote for every job. cells follow as
// cell records. No snapshot exists, so the job is in flight.
func writeParentJournal(t *testing.T, dir, id, spec string, seed int64, parallel int, cells ...store.CellResult) {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"kind":"header","version":"v1"}` + "\n")
	fmt.Fprintf(&b, `{"kind":"job","id":%q,"spec":%q,"seed":%d,"scale":1,"parallel":%d,"created_ns":42}`+"\n",
		id, spec, seed, parallel)
	for _, c := range cells {
		stat, err := json.Marshal(c.Stat)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, `{"kind":"cell","job":%q,"index":%d,"key":%q,"stat":%s,"result":%q}`+"\n",
			id, c.Index, c.Key, stat, base64.StdEncoding.EncodeToString(c.Result))
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredJobWithEveryCellJournaled: a crash after a job's last
// cell is journaled but before its done record leaves nothing to run
// on restart. The restarted server must still finish the job with the
// uninterrupted envelope, executing no cell, whatever parallelism the
// job record names (journals from servers that took a per-job
// parallel value carry it; it no longer chooses a pool). The spec
// gathers results[0], as the registered one-cell experiments do, so a
// gather over an empty sub-grid would panic.
func TestRecoveredJobWithEveryCellJournaled(t *testing.T) {
	for _, parallel := range []int{0, 2} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			var execs atomic.Int64
			reg := campaign.NewRegistry()
			reg.Register(campaign.Entry{
				Name: "single", Kind: campaign.KindAux, Title: "one gathered cell",
				Build: func(p campaign.Params) campaign.Spec {
					s := campaign.Grid([]campaign.Cell{{Key: "only"}},
						func(c campaign.Cell, seed int64) (string, error) {
							execs.Add(1)
							return fmt.Sprintf("%s#%d", c.Key, seed), nil
						},
						func(results []string) any { return results[0] })
					s.Name, s.Kind, s.Seed = "single", campaign.KindAux, p.Seed
					return s
				},
			})
			want := standaloneEnvelope(t, reg, `{"spec":"single","seed":7}`)

			dir := t.TempDir()
			const id = "job-000003"
			writeParentJournal(t, dir, id, "single", 7, parallel, parentJournalCell(t, reg, "single", 7, 0))

			execs.Store(0)
			_, ts := newTestServer(t, Config{Registry: reg, StoreDir: dir})
			fin := waitTerminal(t, ts, id)
			if fin.State != StateDone || !fin.Recovered || fin.CellsDone != 1 {
				t.Fatalf("resumed job = %+v, want recovered done job with 1 cell", fin)
			}
			if n := execs.Load(); n != 0 {
				t.Errorf("restart executed %d cells, want 0", n)
			}
			if code, body := fetch(t, ts.URL+fin.ResultURL); code != http.StatusOK || !bytes.Equal(body, want) {
				t.Errorf("resumed result = %d, equal to uninterrupted %v", code, bytes.Equal(body, want))
			}
		})
	}
}

// TestParentJournalResumesOnSharedPool opens a journal written by a
// server that still took per-job parallelism: its job record pins
// "parallel":3 and two of the four cells are journaled. The job must
// resume on the shared pool, re-running only the two unjournaled
// cells, and serve the uninterrupted envelope; its status no longer
// names a parallelism.
func TestParentJournalResumesOnSharedPool(t *testing.T) {
	open := make(chan struct{})
	close(open)
	want := standaloneEnvelope(t, gatedRegistry(open, func(string) {}), `{"spec":"gated","seed":7}`)

	var mu sync.Mutex
	reran := map[string]int{}
	reg := gatedRegistry(open, func(key string) {
		mu.Lock()
		reran[key]++
		mu.Unlock()
	})
	dir := t.TempDir()
	const id = "job-000005"
	writeParentJournal(t, dir, id, "gated", 7, 3,
		parentJournalCell(t, reg, "gated", 7, 0), parentJournalCell(t, reg, "gated", 7, 1))
	mu.Lock()
	clear(reran) // the fixture's own executions
	mu.Unlock()

	_, ts := newTestServer(t, Config{Registry: reg, StoreDir: dir})
	fin := waitTerminal(t, ts, id)
	if fin.State != StateDone || !fin.Recovered || fin.CellsDone != 4 {
		t.Fatalf("resumed job = %+v, want recovered done job with 4 cells", fin)
	}
	mu.Lock()
	got := fmt.Sprint(reran)
	mu.Unlock()
	if got != "map[c:1 d:1]" {
		t.Errorf("restart executed %s, want only the unjournaled cells c and d, once each", got)
	}
	if code, body := fetch(t, ts.URL+fin.ResultURL); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Errorf("resumed result = %d, equal to uninterrupted %v", code, bytes.Equal(body, want))
	}
	if _, body := fetch(t, ts.URL+"/v1/jobs/"+id); bytes.Contains(body, []byte(`"parallel"`)) {
		t.Errorf("status still names a parallelism: %s", body)
	}
}

func TestRetentionEvictsOldestFinished(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: tinyRegistry(), Retain: 1})

	first := submit(t, ts, `{"spec":"tiny"}`)
	waitTerminal(t, ts, first)
	second := submit(t, ts, `{"spec":"tiny"}`)
	waitTerminal(t, ts, second)

	if code, _ := fetch(t, ts.URL+"/v1/jobs/"+first); code != http.StatusNotFound {
		t.Errorf("evicted job = %d, want 404", code)
	}
	if code, _ := fetch(t, ts.URL+"/v1/jobs/"+second); code != http.StatusOK {
		t.Errorf("retained job = %d, want 200", code)
	}
}

func TestSpecsListingSorted(t *testing.T) {
	// Register deliberately out of lexical order: the listing must not
	// depend on registration order.
	reg := campaign.NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		n := name
		reg.Register(campaign.Entry{
			Name: n, Kind: campaign.KindAux, Title: "spec " + n,
			Build: func(p campaign.Params) campaign.Spec {
				return campaign.Spec{Name: n, Seed: p.Seed, Cells: []campaign.Cell{{Key: "k"}},
					Exec: func(campaign.Cell, int64) (any, error) { return nil, nil }}
			},
		})
	}
	_, ts := newTestServer(t, Config{Registry: reg})

	var specs []specInfo
	code, _ := doJSON(t, "GET", ts.URL+"/v1/specs", "", &specs)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/specs = %d", code)
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	want := []string{"alpha", "mid", "zeta"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("spec names = %v, want %v", names, want)
	}
	for _, s := range specs {
		if s.Kind != "aux" || !strings.HasPrefix(s.Title, "spec ") {
			t.Errorf("spec entry %+v lost kind/title", s)
		}
	}
}

func TestSubmitAndLookupErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: tinyRegistry()})

	cases := []struct {
		name, body string
		want       int
	}{
		{"unknown spec", `{"spec":"nope"}`, http.StatusNotFound},
		{"invalid json", `{"spec":`, http.StatusBadRequest},
		{"both spec and inline", `{"spec":"tiny","inline":{"name":"x","cells":[]}}`, http.StatusBadRequest},
		{"neither", `{}`, http.StatusBadRequest},
		{"unknown field", `{"spec":"tiny","bogus":1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		var apiErr apiError
		code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", c.body, &apiErr)
		if code != c.want {
			t.Errorf("%s: POST = %d, want %d", c.name, code, c.want)
		}
		if apiErr.Error == "" {
			t.Errorf("%s: no error body", c.name)
		}
	}

	for _, path := range []string{"/v1/jobs/job-000099", "/v1/jobs/job-000099/result", "/v1/jobs/job-000099/manifest"} {
		if code, _ := fetch(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/job-000099", "", nil); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", code)
	}
}

func TestInlineJob(t *testing.T) {
	if testing.Short() {
		t.Skip("inline job hammers a real session")
	}
	_, ts := newTestServer(t, Config{Registry: tinyRegistry()})

	body := `{"inline":{"name":"demo","cells":[
		{"key":"c0","arch":"Raptor Lake","dimm":"S3",
		 "config":{"instr":"prefetcht2","banks":4,"barrier":"nop","nops":21,"obfuscate":true},
		 "budget":{"patterns":2,"locations":1,"duration_ns":5e7}}
	]},"seed":9}`
	id := submit(t, ts, body)
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("inline job = %s (%s), want done", st.State, st.Error)
	}
	code, data := fetch(t, ts.URL+st.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("GET result = %d", code)
	}
	var env struct {
		Experiment string `json:"experiment"`
		Result     []any  `json:"result"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Experiment != "inline/demo" || len(env.Result) != 1 {
		t.Errorf("inline envelope: experiment %q, %d results", env.Experiment, len(env.Result))
	}

	// Client errors out of the inline builder.
	bad := []string{
		`{"inline":{"name":"x","cells":[{"key":"a","arch":"NoSuch","dimm":"S3","config":{"instr":"load"}}]}}`,
		`{"inline":{"name":"x","cells":[{"key":"a","arch":"Raptor Lake","dimm":"??","config":{"instr":"load"}}]}}`,
		`{"inline":{"name":"x","cells":[{"key":"a","arch":"Raptor Lake","dimm":"S3","config":{"instr":"mov"}}]}}`,
		`{"inline":{"name":"x","cells":[{"key":"a","arch":"Raptor Lake","dimm":"S3","config":{"instr":"load"}},{"key":"a","arch":"Raptor Lake","dimm":"S3","config":{"instr":"load"}}]}}`,
		`{"inline":{"name":"","cells":[]}}`,
	}
	for _, b := range bad {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", b, nil); code != http.StatusBadRequest {
			t.Errorf("bad inline %s: POST = %d, want 400", b, code)
		}
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: tinyRegistry()})
	waitTerminal(t, ts, submit(t, ts, `{"spec":"tiny"}`))

	code, data := fetch(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, metric := range []string{
		"rhohammer_serve_jobs_accepted_total",
		"rhohammer_serve_jobs_completed_total",
		"rhohammer_serve_queue_depth",
		"rhohammer_serve_jobs_running",
	} {
		if !strings.Contains(string(data), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}

	var h healthStatus
	code, _ = doJSON(t, "GET", ts.URL+"/healthz", "", &h)
	if code != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz = %d %q, want 200 ok", code, h.Status)
	}
}
