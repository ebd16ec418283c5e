package serve

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"rhohammer/internal/experiments"
)

// TestNodeCountDeterminism is the fabric's acceptance proof, the
// node-count extension of worker-count determinism (make determinism
// runs it under -race): the same registered spec at the same seed and
// scale produces byte-identical canonical envelopes whether it runs
// standalone or on a coordinator with 1, 2 or 4 worker nodes. Cell
// seeds derive from stable keys, results travel the wire losslessly
// (gob), and the coordinator's merge is the same AssembleOutcome +
// WriteEnvelope path a local run uses — so placement can never leak
// into the bytes.
func TestNodeCountDeterminism(t *testing.T) {
	const body = `{"spec":"tiny","seed":123}`
	reg := tinyRegistry()

	// Standalone: the whole grid runs in-process, on the shared pool.
	want := standaloneEnvelope(t, reg, body)

	for _, nodes := range []int{1, 2, 4} {
		_, ts := newTestServer(t, Config{
			Registry: reg, Coordinator: true,
			// Batch 1 forces one lease per cell, so multi-worker
			// topologies genuinely interleave nodes within the grid.
			LeaseBatch: 1, LeaseTTL: 5 * time.Second,
		})
		startWorkers(t, ts, reg, nodes)

		id := submit(t, ts, body)
		st := waitTerminal(t, ts, id)
		if st.State != StateDone {
			t.Fatalf("nodes=%d: job = %s (%s)", nodes, st.State, st.Error)
		}
		code, got := fetch(t, ts.URL+st.ResultURL)
		if code != http.StatusOK {
			t.Fatalf("nodes=%d: result = %d", nodes, code)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("nodes=%d: envelope differs from standalone\n got: %s\nwant: %s", nodes, got, want)
		}
	}
}

// TestNodeCountDeterminismRealSpec repeats the proof on the real
// experiment registry — the `chain` grid, whose cells return real
// result structs that must survive the gob wire — comparing a
// standalone run against a 2-node topology byte for byte.
func TestNodeCountDeterminismRealSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chain grid twice")
	}
	const body = `{"spec":"chain","seed":123,"scale":0.05}`
	want := standaloneEnvelope(t, experiments.Registry, body)

	_, ts := newTestServer(t, Config{
		Registry: experiments.Registry, Coordinator: true,
		LeaseBatch: 2, LeaseTTL: 10 * time.Second,
	})
	startWorkers(t, ts, experiments.Registry, 2)

	id := submit(t, ts, body)
	deadline := time.Now().Add(2 * time.Minute)
	var st jobStatus
	for {
		if time.Now().After(deadline) {
			t.Fatalf("distributed chain job did not finish")
		}
		code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "", &st)
		if code != http.StatusOK {
			t.Fatalf("GET job = %d", code)
		}
		if st.State.terminal() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job = %s (%s)", st.State, st.Error)
	}
	code, got := fetch(t, ts.URL+st.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("2-node chain envelope differs from standalone\n got: %s\nwant: %s", got, want)
	}
}
