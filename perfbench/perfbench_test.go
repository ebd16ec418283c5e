package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// tinyParams shrinks every workload to a few cheap operations so the
// tests stay short under the race detector.
func tinyParams(t *testing.T) *params {
	t.Helper()
	p, err := loadParams()
	if err != nil {
		t.Fatal(err)
	}
	p.Fuzz.Archs = p.Fuzz.Archs[:1]
	p.Fuzz.DIMMs = p.Fuzz.DIMMs[:1]
	p.Fuzz.DIMMs[0].Patterns = 1
	p.Fuzz.DurationNS = 2e6
	p.Fuzz.SteadyS = 0.01
	p.Fuzz.Pinned = nil
	p.Remap.Archs = p.Remap.Archs[:2]
	p.Remap.Capacities = p.Remap.Capacities[:1]
	p.Remap.Tools = p.Remap.Tools[:2]
	p.Remap.Pinned = nil
	p.Serve.RatePerS = 4
	p.Serve.OpenLoopMinJobs = 3
	p.Serve.Clients = 4
	p.Serve.Specs = p.Serve.Specs[:0]
	p.Serve.Specs = append(p.Serve.Specs, struct {
		Name  string  `json:"name"`
		Scale float64 `json:"scale"`
	}{"table2", 1})
	p.Serve.Inline.DurationNS = 2e6
	p.Serve.Inline.MaxCells = 1
	p.Serve.Replay.Events = 200
	p.Serve.Restarts = 2
	p.Serve.Pinned = nil
	return p
}

func tinyOpts(t *testing.T, seconds float64) runOpts {
	t.Helper()
	m, err := loadMetricDefs("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return runOpts{seed: 3, seconds: seconds, out: t.TempDir(), params: tinyParams(t), metrics: m}
}

// TestWorkloads runs each workload briefly, untraced and traced, and
// checks the output contract: no operation fails, the traced run
// reproduces the untraced digest and simulated counts, a second run of
// the same seed agrees with the recorded digests, and every end-to-end
// and per-layer metric BENCHMARK.json names is reported.
func TestWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seconds float64
	}{{"fuzz", 0.01}, {"remap", 0.01}, {"serve", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			o := tinyOpts(t, tc.seconds)
			res, report, err := execute(tc.name, o, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: %+v, errors %v", res, report["errors"])
			}
			for _, m := range o.metrics.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("end-to-end metric %s missing or wrong unit: %+v", m.Name, v)
				}
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
				}
			}

			// Same seed, same output directory: the traced run checks its
			// passes against each other and against the digests recorded
			// by the run above.
			res, report, err = execute(tc.name, o, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: %+v, errors %v", res, report["errors"])
			}
			for _, def := range o.metrics.PerLayer {
				if v, ok := res.Metrics[def.Name]; !ok || v.Unit != def.Unit {
					t.Errorf("per-layer metric %s missing or wrong unit: %+v", def.Name, v)
				}
			}
			if _, ok := res.Metrics["trace.overhead_ratio"]; !ok {
				t.Error("tracing overhead not reported")
			}
		})
	}
}

// TestDigestChecks makes sure the digest checks can fail: a wrong pin
// at the default seed, and a recorded digest of the same seed that
// disagrees with the run.
func TestDigestChecks(t *testing.T) {
	o := tinyOpts(t, 0.01)
	o.seed = o.params.DefaultSeed
	o.params.Remap.Pinned = []string{"not-the-digest"}
	res, _, err := execute("remap", o, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("run with a wrong pinned digest reported correct")
	}

	o = tinyOpts(t, 0.01)
	if _, _, err := execute("remap", o, false); err != nil {
		t.Fatal(err)
	}
	records, _ := filepath.Glob(filepath.Join(o.out, "digests", "remap-seed3-*.json"))
	if len(records) != 1 {
		t.Fatalf("digest records: %v", records)
	}
	if err := os.WriteFile(records[0], []byte(`["not-the-digest"]`), 0o644); err != nil {
		t.Fatal(err)
	}
	res, _, err = execute("remap", o, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("run disagreeing with the recorded digest of its seed reported correct")
	}
}

// TestServeConnectionCap checks the load generator never holds more
// client connections than nproc.
func TestServeConnectionCap(t *testing.T) {
	o := tinyOpts(t, 2)
	pa, err := runServe(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.errs) > 0 {
		t.Fatal(pa.errs)
	}
	conns := pa.notes["client_connections"].(int64)
	if conns < 1 || conns > int64(runtime.NumCPU()) {
		t.Errorf("client connections = %d, want 1..%d", conns, runtime.NumCPU())
	}
}

// TestServeOverCapacity runs the closed loop with more clients than a
// server at serverd's defaults holds (2 shards + 16 queued jobs): the
// refused submissions are sent again after Retry-After, so every job
// still completes with the right bytes.
func TestServeOverCapacity(t *testing.T) {
	o := tinyOpts(t, 1)
	o.params.Serve.Clients = 40
	pa, err := runServe(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.errs) > 0 || pa.failed != 0 {
		t.Fatalf("failed %d of %d: %v", pa.failed, pa.attempted, pa.errs)
	}
	t.Logf("%d jobs, %d submissions refused and sent again", pa.attempted, pa.notes["rejected"])
}

// TestClientResendsAfter429 checks the client honors Retry-After: a job
// refused twice is sent again, completes, and counts both refusals.
func TestClientResendsAfter429(t *testing.T) {
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"job queue is full"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-000001","state":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/job-000001", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"job-000001","state":"done"}`)
	})
	mux.HandleFunc("GET /v1/jobs/job-000001/result", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "envelope")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cl := &client{hc: srv.Client(), url: srv.URL, poll: time.Millisecond}
	out := cl.run(&serveJob{path: "/v1/jobs", body: []byte(`{}`)}, time.Now())
	if out.err != "" || out.rejections != 2 || string(out.result) != "envelope" {
		t.Fatalf("outcome: err %q, rejections %d, result %q", out.err, out.rejections, out.result)
	}
}

// TestSeedZeroIsOrdinary checks seed 0 draws its own inputs rather than
// standing in for the default seed.
func TestSeedZeroIsOrdinary(t *testing.T) {
	p := tinyParams(t)
	if p.DefaultSeed == 0 {
		t.Skip("the default seed is 0")
	}
	a, b := remapBatch(p.Remap, 0, 0), remapBatch(p.Remap, p.DefaultSeed, 0)
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Errorf("seed 0 and the default seed %d draw the same remap batch", p.DefaultSeed)
	}
}
