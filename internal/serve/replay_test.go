package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/dram"
	"rhohammer/internal/experiments"
	"rhohammer/internal/hammer"
	"rhohammer/internal/pattern"
	"rhohammer/internal/replay"
)

// synthTrace returns a small headered ACT/REF trace: enough commands to
// exercise the engine, cheap enough to POST in a unit test.
func synthTrace(seed int64) string {
	var b strings.Builder
	b.WriteString(replay.HeaderLine("S3", seed))
	t, seq := 0.0, 0
	for i := 0; i < 500; i++ {
		t += 50
		fmt.Fprintf(&b, `{"seq":%d,"t_ns":%g,"layer":"dram","kind":"act","bank":%d,"row":%d}`+"\n",
			seq, t, i%4, 1000+uint64(i%16)*2)
		seq++
		if i%100 == 99 {
			t += 400
			fmt.Fprintf(&b, `{"seq":%d,"t_ns":%g,"layer":"dram","kind":"ref"}`+"\n", seq, t)
			seq++
		}
	}
	return b.String()
}

// replayBody JSON-encodes a POST /v1/replay request.
func replayBody(t *testing.T, req map[string]any) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReplayEndpointDeterministicAcrossShards pins the tentpole serving
// contract: POST /v1/replay produces the same canonical verdict
// envelope as running the replay spec through campaign.Run
// directly, byte-identical at any shard count — and resubmitting the
// same trace is served from the result cache.
func TestReplayEndpointDeterministicAcrossShards(t *testing.T) {
	trace := synthTrace(77)
	body := replayBody(t, map[string]any{"trace": trace})

	// The direct path: decode, wrap, run, canonical envelope.
	f, err := replay.DecodeBytes([]byte(trace), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := replay.Spec(f)
	out, err := campaign.Run(context.Background(), spec, 1, campaign.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	cfg := experiments.Config{Seed: f.Seed, Scale: 1, Workers: 1}
	if err := experiments.WriteCanonicalOutcomeJSON(&want, spec.Name, cfg, out.Result, out); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 3} {
		_, ts := newTestServer(t, Config{Registry: tinyRegistry(), Shards: shards})
		var acc jobAccepted
		code, _ := doJSON(t, "POST", ts.URL+"/v1/replay", body, &acc)
		if code != http.StatusAccepted {
			t.Fatalf("shards=%d: POST /v1/replay = %d", shards, code)
		}
		st := waitTerminal(t, ts, acc.ID)
		if st.State != StateDone {
			t.Fatalf("shards=%d: job = %s (%s)", shards, st.State, st.Error)
		}
		if !strings.HasPrefix(st.Spec, "replay/") {
			t.Errorf("replay job spec = %q, want a replay/<hash> name", st.Spec)
		}
		code, got := fetch(t, ts.URL+st.ResultURL)
		if code != http.StatusOK {
			t.Fatalf("GET result = %d", code)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("shards=%d: served replay envelope differs from direct campaign.Run envelope\n got: %s\nwant: %s",
				shards, got, want.Bytes())
		}

		// Same trace again: served from the result cache, byte-identical.
		var acc2 jobAccepted
		code, _ = doJSON(t, "POST", ts.URL+"/v1/replay", body, &acc2)
		if code != http.StatusAccepted || acc2.State != StateDone {
			t.Fatalf("shards=%d: replay resubmit = %d state=%s, want 202/done", shards, code, acc2.State)
		}
		if st2 := waitTerminal(t, ts, acc2.ID); !st2.Cached {
			t.Errorf("shards=%d: replay resubmit not served from cache", shards)
		}
		_, got2 := fetch(t, ts.URL+"/v1/jobs/"+acc2.ID+"/result")
		if !bytes.Equal(got2, want.Bytes()) {
			t.Errorf("shards=%d: cached replay envelope differs", shards)
		}

		// A different device seed is a different content hash, so it
		// must miss the cache.
		var acc3 jobAccepted
		code, _ = doJSON(t, "POST", ts.URL+"/v1/replay",
			replayBody(t, map[string]any{"trace": trace, "seed": 78}), &acc3)
		if code != http.StatusAccepted {
			t.Fatalf("shards=%d: reseeded replay = %d", shards, code)
		}
		if st3 := waitTerminal(t, ts, acc3.ID); st3.Cached || st3.State != StateDone {
			t.Errorf("shards=%d: reseeded replay state=%s cached=%v, want fresh done", shards, st3.State, st3.Cached)
		}
	}
}

// TestReplayEndpointValidation pins the rejection paths: malformed
// request bodies and malformed traces are typed 400s at submission
// (never failed jobs), and oversize bodies are a 413 bounded by
// MaxReplayBytes.
func TestReplayEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Registry: tinyRegistry()})
	cases := []struct {
		name, body, wantFrag string
	}{
		{"invalid JSON", `{not json`, "invalid replay request"},
		{"unknown field", `{"trace":"x","bogus":1}`, "invalid replay request"},
		{"missing trace", `{"dimm":"S3"}`, `"trace" is required`},
		{"unknown event kind", replayBody(t, map[string]any{
			"trace": `{"seq":0,"layer":"dram","kind":"zap"}`, "dimm": "S3"}), "unknown-kind"},
		{"no module profile", replayBody(t, map[string]any{
			"trace": `{"seq":0,"layer":"dram","kind":"act","bank":0,"row":1}`}), "dimm"},
		{"empty trace", replayBody(t, map[string]any{"trace": "\n\n", "dimm": "S3"}), "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var apiErr apiError
			code, _ := doJSON(t, "POST", ts.URL+"/v1/replay", tc.body, &apiErr)
			if code != http.StatusBadRequest {
				t.Fatalf("POST = %d, want 400", code)
			}
			if !strings.Contains(apiErr.Error, tc.wantFrag) {
				t.Errorf("error %q does not mention %q", apiErr.Error, tc.wantFrag)
			}
		})
	}

	_, small := newTestServer(t, Config{Registry: tinyRegistry(), MaxReplayBytes: 1024})
	big := replayBody(t, map[string]any{"trace": synthTrace(1), "dimm": "S3"})
	var apiErr apiError
	code, _ := doJSON(t, "POST", small.URL+"/v1/replay", big, &apiErr)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize POST = %d, want 413", code)
	}
	if !strings.Contains(apiErr.Error, "1024") {
		t.Errorf("413 error %q does not state the bound", apiErr.Error)
	}
}

// TestTraceEndpointUnavailable pins the two 409 paths of
// GET /v1/jobs/{id}/trace: the job is still running, or it finished
// without recording any sessions.
func TestTraceEndpointUnavailable(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Config{Registry: blockingRegistry(gate)})
	id := submit(t, ts, `{"spec":"block","seed":1}`)
	var apiErr apiError
	code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/trace", "", &apiErr)
	if code != http.StatusConflict {
		t.Fatalf("GET trace while pending = %d, want 409", code)
	}
	close(gate)
	if st := waitTerminal(t, ts, id); st.State != StateDone {
		t.Fatalf("job = %s", st.State)
	}
	// The blocking spec runs no hammer sessions, so there is no trace.
	code, _ = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/trace", "", &apiErr)
	if code != http.StatusConflict {
		t.Fatalf("GET trace of sessionless job = %d, want 409", code)
	}
}

// hammerRegistry registers a one-cell spec that hammers the vulnerable
// S4 module for real, stashing the session's flips in sink so the test
// can compare them against a replay of the job's served trace.
func hammerRegistry(mu *sync.Mutex, sink *[]dram.Flip) *campaign.Registry {
	r := campaign.NewRegistry()
	r.Register(campaign.Entry{
		Name: "hot", Kind: campaign.KindAux, Title: "one real hammer cell",
		Build: func(p campaign.Params) campaign.Spec {
			return campaign.Spec{
				Name: "hot", Kind: campaign.KindAux, Seed: p.Seed,
				Cells: []campaign.Cell{{Key: "only"}},
				Exec: func(c campaign.Cell, seed int64) (any, error) {
					a := arch.RaptorLake()
					s, err := hammer.NewSession(a, arch.DIMMS4(), seed)
					if err != nil {
						return nil, err
					}
					if _, err := s.HammerPatternFor(pattern.KnownGood(), hammer.RecommendedSingleBank(a), 0, 1000, 25e6); err != nil {
						return nil, err
					}
					flips := append([]dram.Flip(nil), s.Dev.Flips()...)
					mu.Lock()
					*sink = append((*sink)[:0], flips...)
					mu.Unlock()
					return len(flips), nil
				},
			}
		},
	})
	return r
}

// TestJobTraceRoundTrip is the trace-serving satellite end to end: a
// real hammer job's trace fetched from GET /v1/jobs/{id}/trace decodes
// and replays to exactly the flip set the job's session observed, and
// the same bytes are accepted back through POST /v1/replay.
func TestJobTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 25ms hammer session; skipped in -short")
	}
	var mu sync.Mutex
	var sessionFlips []dram.Flip
	// The ring must hold the full session (~440k events at 25ms), and the
	// replay bound must admit the resulting ~25MB dump for the POST below.
	_, ts := newTestServer(t, Config{
		Registry: hammerRegistry(&mu, &sessionFlips), TraceCap: 1 << 19, MaxReplayBytes: 64 << 20,
	})

	id := submit(t, ts, `{"spec":"hot","seed":99}`)
	st := waitTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job = %s (%s)", st.State, st.Error)
	}
	if st.TraceURL != "/v1/jobs/"+id+"/trace" {
		t.Fatalf("trace_url = %q", st.TraceURL)
	}
	code, trace := fetch(t, ts.URL+st.TraceURL)
	if code != http.StatusOK {
		t.Fatalf("GET trace = %d", code)
	}
	code, again := fetch(t, ts.URL+st.TraceURL)
	if code != http.StatusOK || !bytes.Equal(trace, again) {
		t.Error("trace endpoint is not deterministic across fetches")
	}

	// Replay locally with the cell's derived device seed.
	devSeed := hammer.DeviceSeed(st.Cells[0].Seed)
	f, err := replay.DecodeBytes(trace, replay.Options{DIMM: "S4", Seed: &devSeed})
	if err != nil {
		t.Fatal(err)
	}
	v := replay.Run(f)
	if v.Divergence != "" {
		t.Fatalf("auditor divergence replaying the served trace: %s", v.Divergence)
	}
	if v.RecordedMissing != 0 {
		t.Errorf("%d flips recorded in the served trace were not reproduced", v.RecordedMissing)
	}
	mu.Lock()
	want := append([]dram.Flip(nil), sessionFlips...)
	mu.Unlock()
	if len(want) == 0 {
		t.Fatal("hammer job produced no flips; round trip would be vacuous")
	}
	if v.FlipCount != len(want) {
		t.Fatalf("replayed %d flips, job session observed %d", v.FlipCount, len(want))
	}
	for i, fl := range want {
		got := v.Flips[i]
		if got.Bank != fl.Bank || got.Row != fl.Row || got.Byte != fl.ByteInRow ||
			got.Bit != int(fl.Bit) || got.OneToZero != fl.OneToZero || got.TimeNS != fl.Time {
			t.Errorf("flip %d: replayed %+v, session observed %+v", i, got, fl)
		}
	}

	// And the served bytes round-trip through the replay endpoint.
	var acc jobAccepted
	code, _ = doJSON(t, "POST", ts.URL+"/v1/replay",
		replayBody(t, map[string]any{"trace": string(trace), "dimm": "S4", "seed": devSeed}), &acc)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/replay of served trace = %d", code)
	}
	if rst := waitTerminal(t, ts, acc.ID); rst.State != StateDone {
		t.Fatalf("replay of served trace = %s (%s)", rst.State, rst.Error)
	}
}
