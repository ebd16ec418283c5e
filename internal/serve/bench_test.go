package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeSubmit times a served job from submit to result through
// the server's handler, with no listener and no store. cold POSTs tiny
// at a fresh seed and polls its status until it is done; cache_hit
// re-POSTs a completed job's body, which admission answers done.
func BenchmarkServeSubmit(b *testing.B) {
	s, err := New(Config{Registry: tinyRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain(context.Background())
	h := s.Handler()
	call := func(b *testing.B, method, path, body string, want int, out any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			b.Fatalf("%s %s = %d, want %d", method, path, rec.Code, want)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, body string) {
		var acc jobAccepted
		call(b, "POST", "/v1/jobs", body, http.StatusAccepted, &acc)
		for {
			var st jobStatus
			call(b, "GET", "/v1/jobs/"+acc.ID, "", http.StatusOK, &st)
			if st.State == StateDone {
				return
			}
			if st.State.terminal() {
				b.Fatalf("job %s = %s (%s)", acc.ID, st.State, st.Error)
			}
		}
	}

	// Seeds stay fresh across the b.N ramp, so no cold job hits the
	// cache.
	var seed int64
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed++
			run(b, fmt.Sprintf(`{"spec":"tiny","seed":%d}`, seed))
		}
	})
	b.Run("cache_hit", func(b *testing.B) {
		const body = `{"spec":"tiny","seed":0}`
		run(b, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var acc jobAccepted
			call(b, "POST", "/v1/jobs", body, http.StatusAccepted, &acc)
			if acc.State != StateDone {
				b.Fatalf("resubmission = %s, want done", acc.State)
			}
		}
	})
}
