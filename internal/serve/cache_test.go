package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCacheHitServesIdenticalBytesInstantly pins the cache satellite's
// contract: resubmitting a completed (spec, seed, scale) yields a job
// that is born done, marked cached, and serves a byte-identical result
// envelope — without consuming queue or shard capacity.
func TestCacheHitServesIdenticalBytesInstantly(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: tinyRegistry()})

	first := submit(t, ts, `{"spec":"tiny","seed":7}`)
	st := waitTerminal(t, ts, first)
	if st.State != StateDone || st.Cached {
		t.Fatalf("first run: state=%s cached=%v, want done/uncached", st.State, st.Cached)
	}
	_, want := fetch(t, ts.URL+"/v1/jobs/"+first+"/result")

	// The resubmission is already terminal in the accept response.
	var acc jobAccepted
	code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"spec":"tiny","seed":7}`, &acc)
	if code != http.StatusAccepted || acc.State != StateDone {
		t.Fatalf("cached POST = %d state=%s, want 202/done", code, acc.State)
	}
	st = waitTerminal(t, ts, acc.ID)
	if !st.Cached || st.State != StateDone {
		t.Fatalf("cached job status: state=%s cached=%v", st.State, st.Cached)
	}
	_, got := fetch(t, ts.URL+"/v1/jobs/"+acc.ID+"/result")
	if !bytes.Equal(got, want) {
		t.Error("cached envelope differs from the original")
	}
	_, manifest := fetch(t, ts.URL+"/v1/jobs/"+acc.ID+"/manifest")
	if !bytes.Contains(manifest, []byte(`"cached"`)) {
		t.Error("cached job manifest does not record the cache hit")
	}

	// Different seed and different scale are different keys.
	for _, body := range []string{`{"spec":"tiny","seed":8}`, `{"spec":"tiny","seed":7,"scale":0.5}`} {
		id := submit(t, ts, body)
		if st := waitTerminal(t, ts, id); st.Cached {
			t.Errorf("submission %s wrongly served from cache", body)
		}
	}
}

// TestInlineBypassesCache pins the cache's opt-out: inline specs never
// hit it, whatever has completed before.
func TestInlineBypassesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("inline jobs hammer a real session")
	}
	_, ts := newTestServer(t, Config{Registry: tinyRegistry()})
	inline := `{"inline":{"name":"adhoc","cells":[
		{"key":"x","arch":"Raptor Lake","dimm":"S3",
		 "config":{"instr":"prefetcht2","banks":4,"barrier":"nop","nops":21,"obfuscate":true},
		 "budget":{"patterns":1,"locations":1,"duration_ns":2e7}}]},"seed":7}`
	// Inline submissions at the same (name, seed, scale) must re-run.
	ids := []string{}
	for i := 0; i < 2; i++ {
		var acc jobAccepted
		code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", inline, &acc)
		if code != http.StatusAccepted {
			t.Fatalf("inline POST = %d", code)
		}
		ids = append(ids, acc.ID)
	}
	for _, id := range ids {
		if st := waitTerminal(t, ts, id); st.Cached {
			t.Error("inline spec wrongly served from cache")
		}
	}
}

// TestResultCacheEvictionOrder pins the cache's eviction order, which
// is retention's: FIFO by finish time, bounded by Retain, and a key
// that re-runs after its eviction joins the back of the line.
func TestResultCacheEvictionOrder(t *testing.T) {
	cases := []struct {
		name    string
		retain  int
		seeds   []int64 // tiny jobs run in order (a retained seed is a hit)
		present []int64
		absent  []int64
	}{
		{
			name:   "capacity one holds only the newest",
			retain: 1, seeds: []int64{1, 2},
			present: []int64{2}, absent: []int64{1},
		},
		{
			name:   "fifo evicts the first insertion",
			retain: 2, seeds: []int64{1, 2, 3},
			present: []int64{2, 3}, absent: []int64{1},
		},
		{
			name:   "re-insert after evict joins the back of the line",
			retain: 2, seeds: []int64{1, 2, 3, 1}, // 3 evicts 1; 1 re-runs, evicting 2
			present: []int64{3, 1}, absent: []int64{2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Registry: tinyRegistry(), Retain: tc.retain})
			for _, seed := range tc.seeds {
				waitTerminal(t, ts, submit(t, ts, fmt.Sprintf(`{"spec":"tiny","seed":%d}`, seed)))
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			if len(s.results) > tc.retain {
				t.Fatalf("cache exceeded its bound: %d entries, retain %d", len(s.results), tc.retain)
			}
			for _, seed := range tc.present {
				if s.results[cacheKey{spec: "tiny", seed: seed, scale: 1}] == nil {
					t.Errorf("seed %d wrongly evicted", seed)
				}
			}
			for _, seed := range tc.absent {
				if s.results[cacheKey{spec: "tiny", seed: seed, scale: 1}] != nil {
					t.Errorf("seed %d should have been evicted", seed)
				}
			}
		})
	}
}

// TestResultCacheEviction pins the retention window as the cache's
// bound. A resubmission hits while a done job with its key is retained;
// a hit is itself such a job, so a key that keeps being resubmitted
// stays answerable after the original's eviction; once every one is
// evicted, the key re-runs. On a durable server a hit is committed by
// its snapshot alone and appends no journal line.
func TestResultCacheEviction(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Registry: tinyRegistry(), Retain: 2, StoreDir: dir})
	const body = `{"spec":"tiny","seed":7}`
	run := func(body string) jobStatus {
		t.Helper()
		st := waitTerminal(t, ts, submit(t, ts, body))
		if st.State != StateDone {
			t.Fatalf("job %s = %s (%s), want done", st.ID, st.State, st.Error)
		}
		return st
	}
	journal := func() []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	orig := run(body)
	if orig.Cached {
		t.Fatal("first run served from cache")
	}
	before := journal()
	if hit := run(body); !hit.Cached {
		t.Fatal("resubmission while the original is retained re-ran")
	} else if _, err := os.Stat(filepath.Join(dir, "snapshots", hit.ID+".json")); err != nil {
		t.Errorf("cache hit has no snapshot: %v", err)
	}
	if after := journal(); !bytes.Equal(after, before) {
		t.Errorf("cache hit appended to the journal: %q", after[len(before):])
	}

	// A new job evicts the original; the retained hit answers the key.
	run(`{"spec":"tiny","seed":8}`)
	if code, _ := fetch(t, ts.URL+"/v1/jobs/"+orig.ID); code != http.StatusNotFound {
		t.Fatalf("original after eviction = %d, want 404", code)
	}
	if st := run(body); !st.Cached {
		t.Error("resubmission re-ran although a cache hit with its key is retained")
	}

	// Two more jobs evict every done job with the key: it re-runs.
	run(`{"spec":"tiny","seed":9}`)
	run(`{"spec":"tiny","seed":10}`)
	if st := run(body); st.Cached {
		t.Error("resubmission served from cache after every job with its key was evicted")
	}
}

// TestConcurrentCacheHits hammers one completed (spec, seed, scale)
// with concurrent resubmissions: every one must be born done, marked
// cached:true in both status and manifest, and serve byte-identical
// envelopes. `make verify` runs this under -race, so it also shakes
// out cache/admission data races.
func TestConcurrentCacheHits(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: tinyRegistry()})
	first := submit(t, ts, `{"spec":"tiny","seed":7}`)
	if st := waitTerminal(t, ts, first); st.State != StateDone {
		t.Fatalf("priming job = %s", st.State)
	}
	_, want := fetch(t, ts.URL+"/v1/jobs/"+first+"/result")

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var acc jobAccepted
			code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"spec":"tiny","seed":7}`, &acc)
			if code != http.StatusAccepted || acc.State != StateDone {
				t.Errorf("hit %d: POST = %d state=%s, want 202/done", i, code, acc.State)
				return
			}
			ids[i] = acc.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue // already reported
		}
		st := waitTerminal(t, ts, id)
		if !st.Cached || st.State != StateDone {
			t.Errorf("hit %d: state=%s cached=%v, want done/cached", i, st.State, st.Cached)
		}
		if _, got := fetch(t, ts.URL+"/v1/jobs/"+id+"/result"); !bytes.Equal(got, want) {
			t.Errorf("hit %d: cached envelope differs from the original", i)
		}
		if _, manifest := fetch(t, ts.URL+"/v1/jobs/"+id+"/manifest"); !bytes.Contains(manifest, []byte(`"cached"`)) {
			t.Errorf("hit %d: manifest does not record the cache hit", i)
		}
	}
}
