package main

import (
	"bufio"
	"bytes"
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

	"rhohammer/internal/experiments"
)

// TestDistSmoke is the `make distsmoke` harness: the distributed fabric
// exercised with real processes. It builds the serverd binary once and
// boots three instances on localhost — one `-role coordinator` and two
// `-role worker` — submits the golden-pinned chain campaign to the
// coordinator, and requires the merged envelope to be byte-identical to
// both a fourth, standalone serverd process running the same job and
// the in-process golden (the CLI code path). It then checks the
// manifest attributes cells to both worker nodes, SIGTERMs all
// processes, and requires clean exits.
//
// It only runs under RHOHAMMER_DISTSMOKE=1 so `go test ./...` stays
// fast; artifacts (envelopes, metrics, manifests) land in DISTSMOKE_OUT
// for CI to upload.
func TestDistSmoke(t *testing.T) {
	if os.Getenv("RHOHAMMER_DISTSMOKE") != "1" {
		t.Skip("distributed smoke harness runs via `make distsmoke` (RHOHAMMER_DISTSMOKE=1)")
	}
	artifacts := os.Getenv("DISTSMOKE_OUT")
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

	// The job under test: the attack-chain grid, the same golden-pinned
	// (spec, seed, scale) the serve smoke uses.
	const spec, seed, scale = "chain", 42, 0.2
	body := fmt.Sprintf(`{"spec":%q,"seed":%d,"scale":%v}`, spec, seed, scale)

	// Golden envelope via the exact CLI code path, computed in-process.
	cfg := experiments.Config{Seed: seed, Scale: scale, Workers: 2}
	_, out, err := experiments.RunOutcome(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var golden bytes.Buffer
	if err := experiments.WriteEnvelope(&golden, spec, cfg, out); err != nil {
		t.Fatal(err)
	}

	// A standalone serverd process runs the job the classic way; its
	// envelope is the distributed run's reference bytes.
	standalone := startServerd(t, bin, listenPrefix,
		"-addr", "127.0.0.1:0", "-drain-timeout", "60s")
	soJob := submitJob(t, standalone.base, body)
	waitDone(t, standalone.base, soJob, 120*time.Second)
	code, soEnvelope := httpGet(t, standalone.base+"/v1/jobs/"+soJob+"/result")
	if code != http.StatusOK {
		t.Fatalf("standalone result = %d: %s", code, soEnvelope)
	}
	if !bytes.Equal(soEnvelope, golden.Bytes()) {
		t.Errorf("standalone serverd envelope diverges from golden CLI envelope\n got: %s\nwant: %s", soEnvelope, golden.Bytes())
	}
	if err := os.WriteFile(filepath.Join(artifacts, "standalone-result.json"), soEnvelope, 0o644); err != nil {
		t.Fatal(err)
	}
	stopServerd(t, standalone, "standalone")

	// The fabric: one coordinator, two workers. Lease batch 1 makes the
	// coordinator hand out one cell per lease, so with eight ~1s cells
	// and a 50ms worker poll both nodes are guaranteed a share of the
	// grid.
	coord := startServerd(t, bin, listenPrefix,
		"-role", "coordinator",
		"-addr", "127.0.0.1:0",
		"-manifest-dir", artifacts,
		"-lease-ttl", "10s",
		"-lease-batch", "1",
		"-drain-timeout", "60s")
	workers := []*serverdProc{
		startServerd(t, bin, workerPrefix,
			"-role", "worker", "-coordinator", coord.base,
			"-worker-name", "smoke-a", "-poll", "50ms"),
		startServerd(t, bin, workerPrefix,
			"-role", "worker", "-coordinator", coord.base,
			"-worker-name", "smoke-b", "-poll", "50ms"),
	}

	// Both workers must appear in the coordinator's listing before the
	// job goes in, so neither misses the grid.
	waitForWorkers(t, coord.base, 2, 30*time.Second)

	distJob := submitJob(t, coord.base, body)
	waitDone(t, coord.base, distJob, 120*time.Second)
	code, distEnvelope := httpGet(t, coord.base+"/v1/jobs/"+distJob+"/result")
	if code != http.StatusOK {
		t.Fatalf("distributed result = %d: %s", code, distEnvelope)
	}
	if !bytes.Equal(distEnvelope, soEnvelope) {
		t.Errorf("distributed envelope diverges from standalone serverd envelope\n got: %s\nwant: %s", distEnvelope, soEnvelope)
	}
	if err := os.WriteFile(filepath.Join(artifacts, "distributed-result.json"), distEnvelope, 0o644); err != nil {
		t.Fatal(err)
	}

	// The manifest must attribute every cell to a node and list both
	// workers in its node summary.
	code, manifest := httpGet(t, coord.base+"/v1/jobs/"+distJob+"/manifest")
	if code != http.StatusOK {
		t.Fatalf("GET manifest = %d", code)
	}
	var m struct {
		Nodes []struct {
			Name  string `json:"name"`
			Cells int    `json:"cells"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(manifest, &m); err != nil {
		t.Fatalf("invalid manifest JSON: %v\n%s", err, manifest)
	}
	total := 0
	for _, n := range m.Nodes {
		total += n.Cells
	}
	if len(m.Nodes) != 2 || total != 8 {
		t.Errorf("manifest nodes = %+v, want 2 nodes covering all 8 cells", m.Nodes)
	}

	// The worker listing and the lease counters tell the same story.
	code, workerList := httpGet(t, coord.base+"/v1/workers")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/workers = %d", code)
	}
	var ws []struct {
		Name  string `json:"name"`
		Cells int    `json:"cells_completed"`
	}
	if err := json.Unmarshal(workerList, &ws); err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[0].Cells+ws[1].Cells != 8 {
		t.Errorf("GET /v1/workers = %s, want 2 workers covering all 8 cells", workerList)
	}
	if err := os.WriteFile(filepath.Join(artifacts, "workers.json"), workerList, 0o644); err != nil {
		t.Fatal(err)
	}

	code, metrics := httpGet(t, coord.base+"/metrics")
	if code != http.StatusOK || !bytes.Contains(metrics, []byte("rhohammer_lease_grants_total 8")) {
		t.Errorf("metrics = %d, missing the 8 lease grants:\n%s", code, metrics)
	}
	if err := os.WriteFile(filepath.Join(artifacts, "metrics.txt"), metrics, 0o644); err != nil {
		t.Fatal(err)
	}

	// Orderly teardown: workers first (they exit on the first signal;
	// any lease they held would be reclaimed), then the coordinator
	// drains.
	for i, w := range workers {
		stopServerd(t, w, fmt.Sprintf("worker-%d", i))
	}
	stopServerd(t, coord, "coordinator")

	// The coordinator's per-job manifest landed on disk.
	data, err := os.ReadFile(filepath.Join(artifacts, distJob+".json"))
	if err != nil {
		t.Fatalf("missing distributed job manifest: %v", err)
	}
	var onDisk map[string]any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatalf("invalid manifest JSON on disk: %v", err)
	}

	// Kill/restart leg: a -store-dir coordinator is SIGKILLed mid-job —
	// no drain, no shutdown hook, exactly what OPERATIONS.md calls a
	// crash — and a fresh process on the same address and store
	// directory must resume the job from its journaled cells, let the
	// same (still-running, never-restarted) workers finish it, and
	// serve an envelope byte-identical to the standalone run. The store
	// directory lands in the artifacts dir so CI uploads the journal
	// and snapshots alongside the envelopes.
	storeDir := filepath.Join(artifacts, "store")
	durable := startServerd(t, bin, listenPrefix,
		"-role", "coordinator",
		"-addr", "127.0.0.1:0",
		"-store-dir", storeDir,
		"-lease-ttl", "10s",
		"-lease-batch", "1",
		"-drain-timeout", "60s")
	addr := strings.TrimPrefix(durable.base, "http://")
	durWorkers := []*serverdProc{
		startServerd(t, bin, workerPrefix,
			"-role", "worker", "-coordinator", durable.base,
			"-worker-name", "survivor-a", "-poll", "50ms", "-drain-grace", "30s"),
		startServerd(t, bin, workerPrefix,
			"-role", "worker", "-coordinator", durable.base,
			"-worker-name", "survivor-b", "-poll", "50ms", "-drain-grace", "30s"),
	}
	waitForWorkers(t, durable.base, 2, 30*time.Second)

	durJob := submitJob(t, durable.base, body)
	waitCellsDone(t, durable.base, durJob, 2, 60*time.Second)
	killServerd(t, durable, "durable coordinator")

	restarted := startServerd(t, bin, listenPrefix,
		"-role", "coordinator",
		"-addr", addr,
		"-store-dir", storeDir,
		"-lease-ttl", "10s",
		"-lease-batch", "1",
		"-drain-timeout", "60s")
	code, stData := httpGet(t, restarted.base+"/v1/jobs/"+durJob)
	if code != http.StatusOK {
		t.Fatalf("restarted coordinator does not know job %s: %d", durJob, code)
	}
	var recSt struct {
		Persisted bool `json:"persisted"`
		Recovered bool `json:"recovered"`
		CellsDone int  `json:"cells_done"`
	}
	if err := json.Unmarshal(stData, &recSt); err != nil {
		t.Fatal(err)
	}
	if !recSt.Persisted || !recSt.Recovered || recSt.CellsDone < 2 {
		t.Errorf("recovered status = %s, want persisted+recovered with >=2 journaled cells", stData)
	}

	waitDone(t, restarted.base, durJob, 120*time.Second)
	code, durEnvelope := httpGet(t, restarted.base+"/v1/jobs/"+durJob+"/result")
	if code != http.StatusOK {
		t.Fatalf("post-restart result = %d: %s", code, durEnvelope)
	}
	if !bytes.Equal(durEnvelope, soEnvelope) {
		t.Errorf("post-restart envelope diverges from standalone serverd envelope\n got: %s\nwant: %s", durEnvelope, soEnvelope)
	}
	if err := os.WriteFile(filepath.Join(artifacts, "restarted-result.json"), durEnvelope, 0o644); err != nil {
		t.Fatal(err)
	}

	// Teardown: the workers were started against the first incarnation
	// and were never restarted — their clean exits prove the fabric
	// tolerates a coordinator swap underneath live workers.
	for i, w := range durWorkers {
		stopServerd(t, w, fmt.Sprintf("survivor-%d", i))
	}
	stopServerd(t, restarted, "restarted coordinator")
}

// waitCellsDone polls a job until at least n cells are complete (or the
// job finishes first — with fast cells the kill may lose the race, and
// snapshot recovery is then what the restart exercises).
func waitCellsDone(t *testing.T, base, id string, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		code, data := httpGet(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, code)
		}
		var st struct {
			State     string `json:"state"`
			Error     string `json:"error"`
			CellsDone int    `json:"cells_done"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "failed", "canceled":
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		case "done":
			return
		}
		if st.CellsDone >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never completed %d cells within %v", id, n, timeout)
}

// killServerd SIGKILLs one process — the crash half of the durability
// story; stopServerd is the polite half.
func killServerd(t *testing.T, p *serverdProc, label string) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("killing %s: %v", label, err)
	}
	<-p.exited
	p.exitSeen = true
}

const (
	listenPrefix = "serverd listening on "
	workerPrefix = "serverd worker polling "
)

// serverdProc is one running serverd process started by startServerd.
type serverdProc struct {
	cmd      *exec.Cmd
	exited   chan error
	exitSeen bool
	// base is the process's own URL for servers, the coordinator's URL
	// for workers (the suffix of its startup line either way).
	base string
}

// startServerd boots one serverd process and waits for its startup line
// (the listener address for server roles, the coordinator URL for
// workers). The process is killed at test cleanup if the test didn't
// already reap it via stopServerd.
func startServerd(t *testing.T, bin, wantPrefix string, args ...string) *serverdProc {
	t.Helper()
	p := &serverdProc{cmd: exec.Command(bin, args...), exited: make(chan error, 1)}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	started := false
	t.Cleanup(func() {
		if !started || p.exitSeen {
			return
		}
		p.cmd.Process.Kill()
		<-p.exited
	})

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		p.cmd.Process.Kill()
		t.Fatalf("serverd %v wrote no startup line: %v", args, sc.Err())
	}
	line := sc.Text()
	if !strings.HasPrefix(line, wantPrefix) {
		p.cmd.Process.Kill()
		t.Fatalf("unexpected first line %q, want prefix %q", line, wantPrefix)
	}
	suffix := strings.TrimPrefix(line, wantPrefix)
	if wantPrefix == listenPrefix {
		p.base = "http://" + suffix
	} else {
		p.base = suffix
	}
	go io.Copy(io.Discard, stdout)
	go func() { p.exited <- p.cmd.Wait() }()
	started = true
	return p
}

// stopServerd SIGTERMs one process and requires a clean (exit 0)
// shutdown within a minute.
func stopServerd(t *testing.T, p *serverdProc, label string) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.exited:
		p.exitSeen = true
		if err != nil {
			t.Fatalf("%s exited non-zero after SIGTERM: %v", label, err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("%s did not exit within 60s of SIGTERM", label)
	}
}

// waitForWorkers polls GET /v1/workers until n workers are registered.
func waitForWorkers(t *testing.T, base string, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		code, data := httpGet(t, base+"/v1/workers")
		if code == http.StatusOK {
			var ws []json.RawMessage
			if err := json.Unmarshal(data, &ws); err == nil && len(ws) >= n {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("fewer than %d workers registered within %v", n, timeout)
}
