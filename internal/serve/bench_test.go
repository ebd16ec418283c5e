package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// BenchmarkServeSubmit times a served job from submit to result through
// the server's handler, with no listener and no store. submit_to_result
// POSTs tiny at a fresh seed, waits for the job by reading its state
// under the server mutex between short sleeps (no status GETs, so
// allocs/op does not follow the wait), then GETs its result once;
// cache_hit re-POSTs a completed job's body, which admission answers
// done.
func BenchmarkServeSubmit(b *testing.B) {
	s, err := New(Config{Registry: tinyRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain(context.Background())
	h := s.Handler()
	call := func(b *testing.B, method, path, body string, want int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			b.Fatalf("%s %s = %d, want %d", method, path, rec.Code, want)
		}
		return rec
	}
	submit := func(b *testing.B, body string) jobAccepted {
		var acc jobAccepted
		if err := json.Unmarshal(call(b, "POST", "/v1/jobs", body, http.StatusAccepted).Body.Bytes(), &acc); err != nil {
			b.Fatal(err)
		}
		return acc
	}
	wait := func(b *testing.B, id string) {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		for {
			s.mu.Lock()
			st, errText := j.state, j.err
			s.mu.Unlock()
			if st == StateDone {
				return
			}
			if st.terminal() {
				b.Fatalf("job %s = %s (%s)", id, st, errText)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}

	// Seeds stay fresh across the b.N ramp, so no job hits the cache.
	var seed int64
	b.Run("submit_to_result", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed++
			acc := submit(b, fmt.Sprintf(`{"spec":"tiny","seed":%d}`, seed))
			wait(b, acc.ID)
			call(b, "GET", "/v1/jobs/"+acc.ID+"/result", "", http.StatusOK)
		}
	})
	b.Run("cache_hit", func(b *testing.B) {
		const body = `{"spec":"tiny","seed":0}`
		wait(b, submit(b, body).ID)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if acc := submit(b, body); acc.State != StateDone {
				b.Fatalf("resubmission = %s, want done", acc.State)
			}
		}
	})
}
