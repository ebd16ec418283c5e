package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"rhohammer/internal/arch"
	"rhohammer/internal/campaign"
	"rhohammer/internal/dram"
	"rhohammer/internal/experiments"
	"rhohammer/internal/obs"
	"rhohammer/internal/replay"
)

// TestServeSmoke is the `make servesmoke` harness: it builds the real
// serverd binary, boots it on a free port, drives one short campaign
// job plus one attack-chain grid job over HTTP, diffs each served
// result against the golden canonical envelope (computed in-process
// through the exact CLI code path), resubmits the chain job to prove
// the result cache answers repeat keys, then SIGTERM-drains the server
// with a job still in flight and requires a clean exit with the job
// manifests on disk.
//
// It only runs under RHOHAMMER_SERVESMOKE=1 so `go test ./...` stays
// fast; artifacts (result, metrics, manifests) land in SERVESMOKE_OUT
// for CI to upload.
func TestServeSmoke(t *testing.T) {
	if os.Getenv("RHOHAMMER_SERVESMOKE") != "1" {
		t.Skip("smoke harness runs via `make servesmoke` (RHOHAMMER_SERVESMOKE=1)")
	}
	artifacts := os.Getenv("SERVESMOKE_OUT")
	if artifacts == "" {
		artifacts = t.TempDir()
	}
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(t.TempDir(), "serverd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building serverd: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-shards", "2",
		"-manifest-dir", artifacts,
		"-drain-timeout", "60s",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// exited carries cmd.Wait's single result; exitSeen records that the
	// body already consumed it, so the cleanup below must not wait again.
	exited := make(chan error, 1)
	exitSeen := false
	started := false
	defer func() {
		if !started || exitSeen {
			return
		}
		cmd.Process.Kill()
		<-exited
	}()

	// The first stdout line carries the resolved listen address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("serverd wrote no address line: %v", sc.Err())
	}
	line := sc.Text()
	const prefix = "serverd listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected first line %q", line)
	}
	base := "http://" + strings.TrimPrefix(line, prefix)
	go io.Copy(io.Discard, stdout)
	go func() { exited <- cmd.Wait() }()
	started = true

	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// One short campaign job, matching the CI obs-smoke budget.
	const spec, seed, scale, parallel = "fig3", 42, 0.2, 2
	job1 := submitJob(t, base, fmt.Sprintf(`{"spec":%q,"seed":%d,"scale":%v,"parallel":%d}`, spec, seed, scale, parallel))
	waitDone(t, base, job1, 120*time.Second)

	code, result := httpGet(t, base+"/v1/jobs/"+job1+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result = %d: %s", code, result)
	}
	// Golden envelope: the exact CLI path (`experiments -json -canon
	// -only fig3 -seed 42 -scale 0.2`) computed in-process.
	cfg := experiments.Config{Seed: seed, Scale: scale, Workers: parallel}
	res, out, err := experiments.RunOutcome(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.WriteCanonicalOutcomeJSON(&want, spec, cfg, res, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, want.Bytes()) {
		t.Errorf("served envelope diverges from golden CLI envelope\n got: %s\nwant: %s", result, want.Bytes())
	}
	if err := os.WriteFile(filepath.Join(artifacts, "result.json"), result, 0o644); err != nil {
		t.Fatal(err)
	}
	// One attack-chain grid job: the 2x2x2 allocator x hammerer x victim
	// campaign served through the same binary, golden-diffed against the
	// in-process CLI envelope, then resubmitted to prove the result cache
	// answers repeat (spec, seed, scale) keys without re-running.
	const chainSpec, chainScale = "chain", 0.2
	chainBody := fmt.Sprintf(`{"spec":%q,"seed":%d,"scale":%v,"parallel":%d}`, chainSpec, seed, chainScale, parallel)
	chainJob := submitJob(t, base, chainBody)
	waitDone(t, base, chainJob, 120*time.Second)
	code, chainResult := httpGet(t, base+"/v1/jobs/"+chainJob+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET chain result = %d: %s", code, chainResult)
	}
	chainCfg := experiments.Config{Seed: seed, Scale: chainScale, Workers: parallel}
	chainRes, chainOut, err := experiments.RunOutcome(chainSpec, chainCfg)
	if err != nil {
		t.Fatal(err)
	}
	var chainWant bytes.Buffer
	if err := experiments.WriteCanonicalOutcomeJSON(&chainWant, chainSpec, chainCfg, chainRes, chainOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chainResult, chainWant.Bytes()) {
		t.Errorf("served chain envelope diverges from golden CLI envelope\n got: %s\nwant: %s", chainResult, chainWant.Bytes())
	}
	if err := os.WriteFile(filepath.Join(artifacts, "chain-result.json"), chainResult, 0o644); err != nil {
		t.Fatal(err)
	}
	cachedJob := submitJob(t, base, chainBody)
	codeSt, cachedSt := httpGet(t, base+"/v1/jobs/"+cachedJob)
	var cached struct {
		State  string `json:"state"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(cachedSt, &cached); err != nil {
		t.Fatalf("bad status body %s: %v", cachedSt, err)
	}
	if codeSt != http.StatusOK || cached.State != "done" || !cached.Cached {
		t.Errorf("resubmitted chain job not served from cache (%d): %s", codeSt, cachedSt)
	}
	code, cachedResult := httpGet(t, base+"/v1/jobs/"+cachedJob+"/result")
	if code != http.StatusOK || !bytes.Equal(cachedResult, chainResult) {
		t.Errorf("cached chain result (%d) differs from the original", code)
	}

	// One trace-replay job: record a deterministic ACT/REF trace from an
	// instrumented device, POST it through the real binary's /v1/replay,
	// and golden-diff the served verdict envelope against an in-process
	// campaign.Run over the same decoded trace. The trace and the served
	// envelope both land in the artifact directory. Submitted exactly
	// once, so the cache-hit metric asserted below stays at 1.
	const replaySeed = 42
	recDev := dram.NewDevice(arch.DIMMS3(), replaySeed)
	recTrace := obs.NewTrace(1 << 14)
	recDev.SetTrace(recTrace)
	tns := 0.0
	for i := 0; i < 3000; i++ {
		tns += 50
		recDev.Activate(0, uint64(1000+(i%2)*2), tns)
		if i%156 == 155 {
			tns += 400
			recDev.Refresh(tns)
		}
	}
	var traceBuf bytes.Buffer
	traceBuf.WriteString(replay.HeaderLine("S3", replaySeed))
	if err := recTrace.WriteJSONL(&traceBuf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(artifacts, "replay-trace.jsonl"), traceBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := replay.DecodeBytes(traceBuf.Bytes(), replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replaySpec := replay.Spec(f)
	replayOut, err := campaign.Run(context.Background(), replaySpec, 1, campaign.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var replayWant bytes.Buffer
	replayCfg := experiments.Config{Seed: f.Seed, Scale: 1, Workers: 1}
	if err := experiments.WriteCanonicalOutcomeJSON(&replayWant, replaySpec.Name, replayCfg, replayOut.Result, replayOut); err != nil {
		t.Fatal(err)
	}
	replayBody, err := json.Marshal(map[string]string{"trace": traceBuf.String()})
	if err != nil {
		t.Fatal(err)
	}
	replayJob := submitTo(t, base+"/v1/replay", string(replayBody))
	waitDone(t, base, replayJob, 60*time.Second)
	code, replayResult := httpGet(t, base+"/v1/jobs/"+replayJob+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET replay result = %d: %s", code, replayResult)
	}
	if !bytes.Equal(replayResult, replayWant.Bytes()) {
		t.Errorf("served replay envelope diverges from the in-process envelope\n got: %s\nwant: %s", replayResult, replayWant.Bytes())
	}
	if err := os.WriteFile(filepath.Join(artifacts, "replay-result.json"), replayResult, 0o644); err != nil {
		t.Fatal(err)
	}

	code, metrics := httpGet(t, base+"/metrics")
	if code != http.StatusOK || !bytes.Contains(metrics, []byte("rhohammer_serve_jobs_completed_total")) {
		t.Errorf("metrics = %d, missing serve counters:\n%s", code, metrics)
	}
	if !bytes.Contains(metrics, []byte("rhohammer_serve_result_cache_hits_total 1")) {
		t.Errorf("metrics missing the cache hit:\n%s", metrics)
	}
	if err := os.WriteFile(filepath.Join(artifacts, "metrics.txt"), metrics, 0o644); err != nil {
		t.Fatal(err)
	}

	// SIGTERM with a job still in flight: it must drain, keep serving
	// its results, and exit 0. Polling during the drain races the
	// listener shutdown, so a connection error here means the server
	// already finished draining — job2's manifest on disk is the proof
	// that it completed rather than being dropped.
	job2 := submitJob(t, base, fmt.Sprintf(`{"spec":"table2","seed":%d,"parallel":1}`, seed))
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	pollUntilDoneOrGone(t, base, job2, 60*time.Second)
	select {
	case err := <-exited:
		exitSeen = true
		if err != nil {
			t.Fatalf("serverd exited non-zero after drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serverd did not exit within 60s of SIGTERM")
	}

	for _, id := range []string{job1, job2} {
		path := filepath.Join(artifacts, id+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("missing job manifest: %v", err)
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Errorf("%s: invalid manifest JSON: %v", path, err)
		}
	}
}

// submitJob posts a job and returns its ID.
func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	return submitTo(t, base+"/v1/jobs", body)
}

// submitTo posts a submission body to an admitting endpoint
// (/v1/jobs or /v1/replay) and returns the accepted job ID.
func submitTo(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, data)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		t.Fatalf("bad accept body %s: %v", data, err)
	}
	return acc.ID
}

// waitDone polls a job to the done state.
func waitDone(t *testing.T, base, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		code, data := httpGet(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, code)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v", id, timeout)
}

// pollUntilDoneOrGone polls a job during drain, stopping when it is
// done or the server has shut its listener (drain finished between
// polls). A failed/canceled state is still fatal.
func pollUntilDoneOrGone(t *testing.T, base, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return // listener gone: drain completed
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s = %d during drain", id, resp.StatusCode)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s reached %s during drain: %s", id, st.State, st.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v of SIGTERM", id, timeout)
}

// httpGet fetches one URL.
func httpGet(t *testing.T, url string) (int, []byte) {
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
