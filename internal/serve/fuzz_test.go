package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rhohammer/internal/campaign"
	"rhohammer/internal/experiments"
)

// FuzzLeaseComplete posts one arbitrary completion cell — its index,
// key, result bytes and error text — to a live lease of the typed
// spec's four cells. The coordinator must answer 200, or a 400 that
// applies nothing (no cell done, the lease still held), and must not
// panic. After a 400 the correct completion of the same lease ends the
// job done with the standalone bytes; after a 200, once the cells left
// unreported are completed, the job ends done — failed only when the
// fuzzed cell reported an error. The
// checked-in corpus holds the two completions that crashed coordinators
// before completions were checked: a gob string for a cell, and a
// successful cell without a result.
func FuzzLeaseComplete(f *testing.F) {
	reg := typedRegistry()
	entry, _ := reg.Lookup("typed")
	spec := entry.Build(campaign.Params{Seed: 7, Scale: 1})
	results := make([][]byte, len(spec.Cells))
	for i, c := range spec.Cells {
		v, err := spec.Exec(c, spec.CellSeed(c.Key))
		if err != nil {
			f.Fatal(err)
		}
		if results[i], err = campaign.EncodeResult(v); err != nil {
			f.Fatal(err)
		}
	}
	out, err := campaign.Run(context.Background(), spec, 1, campaign.RunOpts{})
	if err != nil {
		f.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.WriteEnvelope(&want, "typed", experiments.Config{Seed: 7, Scale: 1}, out); err != nil {
		f.Fatal(err)
	}
	f.Add(0, "a", results[0], "")
	f.Add(3, "d", results[3], "deliberate failure")

	f.Fuzz(func(t *testing.T, index int, key string, result []byte, errText string) {
		s, err := New(Config{Registry: reg, Coordinator: true, Shards: 1, LeaseBatch: 4, LeaseTTL: time.Minute, TraceCap: -1})
		if err != nil {
			t.Fatal(err)
		}
		// A wedged job must fail the input, not hang it: the waits below
		// give up at the deadline, and Drain then cancels what is left.
		deadline := time.Now().Add(10 * time.Second)
		ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(5*time.Second))
		defer cancel()
		defer s.Drain(ctx)
		wait := func(what string) {
			if time.Now().After(deadline) {
				t.Fatalf("gave up waiting for %s", what)
			}
			time.Sleep(50 * time.Microsecond)
		}
		call := func(method, path string, body any, out any) int {
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(data)))
			if out != nil && rec.Code < 300 && rec.Code != http.StatusNoContent {
				if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
					t.Fatalf("%s %s: %v", method, path, err)
				}
			}
			return rec.Code
		}
		var wr registerResponse
		call("POST", "/v1/workers", registerRequest{Name: "fuzz"}, &wr)
		var acc jobAccepted
		if code := call("POST", "/v1/jobs", jobRequest{Spec: "typed", Seed: &spec.Seed}, &acc); code != http.StatusAccepted {
			t.Fatalf("submit = %d", code)
		}
		// lease polls until the coordinator grants the job's cells.
		lease := func() *leaseGrant {
			for {
				var grant leaseGrant
				switch code := call("POST", "/v1/leases", acquireRequest{Worker: wr.ID}, &grant); code {
				case http.StatusCreated:
					return &grant
				case http.StatusNoContent:
					wait("a lease")
				default:
					t.Fatalf("lease = %d", code)
				}
			}
		}
		// complete posts a grant's correct completion.
		complete := func(grant *leaseGrant) {
			req := completeRequest{Worker: wr.ID}
			for _, c := range grant.Cells {
				req.Cells = append(req.Cells, completedCell{Index: c.Index, Key: c.Key, Result: results[c.Index],
					Stat: campaign.CellStat{Key: c.Key, Seed: spec.CellSeed(c.Key), Attempts: 1}})
			}
			if code := call("POST", "/v1/leases/"+grant.LeaseID+"/complete", req, nil); code != http.StatusOK {
				t.Fatalf("correct completion = %d", code)
			}
		}
		s.mu.Lock()
		j := s.jobs[acc.ID]
		s.mu.Unlock()

		grant := lease()
		body := completeRequest{Worker: wr.ID, Cells: []completedCell{{Index: index, Key: key, Result: result,
			Stat: campaign.CellStat{Key: key, Seed: spec.CellSeed(key), Attempts: 1, Err: errText}}}}
		code := call("POST", "/v1/leases/"+grant.LeaseID+"/complete", body, nil)
		switch code {
		case http.StatusBadRequest:
			s.mu.Lock()
			held, done := s.leases[grant.LeaseID] != nil, j.cellsDone
			s.mu.Unlock()
			if done != 0 || !held {
				t.Fatalf("rejected completion applied %d cells; lease still held: %v", done, held)
			}
			complete(grant)
		case http.StatusOK:
			// The three cells left unreported went back to pending.
			complete(lease())
		default:
			t.Fatalf("complete = %d, want 200 or 400", code)
		}
		// Only a cell reported as failed may fail the job: an accepted
		// result is one the spec can gather. A worker's well-typed value
		// is trusted, so only a job whose fuzzed body was rejected must
		// also reproduce the standalone bytes.
		wantState := StateDone
		if code == http.StatusOK && errText != "" {
			wantState = StateFailed
		}
		for {
			s.mu.Lock()
			st, jobErr, got := j.state, j.err, j.result
			s.mu.Unlock()
			if !st.terminal() {
				wait("the job to end")
				continue
			}
			if st != wantState {
				t.Fatalf("complete = %d, then the job ended %s (%s), want %s", code, st, jobErr, wantState)
			}
			if code == http.StatusBadRequest && !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("after a rejected completion the job's bytes differ from standalone:\n got: %s\nwant: %s", got, want.Bytes())
			}
			return
		}
	})
}
