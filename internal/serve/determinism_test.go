package serve

import (
	"bytes"
	"net/http"
	"testing"

	"rhohammer/internal/experiments"
)

// TestHTTPResultMatchesCLIEnvelope pins the serving determinism
// contract end to end on the real experiment registry: the result a
// job produces over HTTP with seed S is byte-identical to what
// `cmd/experiments -json -only <spec> -seed S` writes (the CLI calls
// exactly the RunOutcome + WriteEnvelope pair used below), for every
// shard-pool size.
func TestHTTPResultMatchesCLIEnvelope(t *testing.T) {
	const spec, seed = "table2", 123

	// The CLI path: registry build, pool run, canonical envelope.
	cliBytes := func(workers int) []byte {
		cfg := experiments.Config{Seed: seed, Scale: 1, Workers: workers}
		_, out, err := experiments.RunOutcome(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := experiments.WriteEnvelope(&buf, spec, cfg, out); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := cliBytes(1)

	for _, shards := range []int{1, 3} {
		_, ts := newTestServer(t, Config{Registry: experiments.Registry, Shards: shards})
		id := submit(t, ts, `{"spec":"`+spec+`","seed":123}`)
		st := waitTerminal(t, ts, id)
		if st.State != StateDone || st.Cached {
			t.Fatalf("shards=%d: job = %s cached=%v (%s)", shards, st.State, st.Cached, st.Error)
		}
		code, got := fetch(t, ts.URL+st.ResultURL)
		if code != http.StatusOK {
			t.Fatalf("GET result = %d", code)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%d: HTTP envelope differs from CLI envelope\n got: %s\nwant: %s", shards, got, want)
		}
	}

	// And the CLI itself is worker-count independent, so the comparison
	// above is against a canonical artifact, not a coincidence.
	if !bytes.Equal(cliBytes(4), want) {
		t.Error("CLI canonical envelope varies with -parallel")
	}
}
