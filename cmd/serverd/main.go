// Command serverd is the long-lived campaign service: the experiment
// registry behind an HTTP job API (see API.md for the wire contract,
// SCALING.md for the distributed fabric).
//
// Usage:
//
//	serverd [-role standalone|coordinator|worker]
//	        [-addr :8077] [-shards N] [-queue N] [-retain N]
//	        [-retry-after D] [-manifest-dir DIR] [-seed N]
//	        [-drain-timeout D] [-cache N] [-trace-cap N]
//	        [-replay-max-bytes N] [-store-dir DIR]
//	        [-lease-ttl D] [-lease-batch N]
//	        [-coordinator URL] [-worker-name S] [-poll D] [-parallel N]
//	        [-drain-grace D]
//
// Jobs are admitted with POST /v1/jobs (a registered spec name or an
// inline cell grid), run -shards at a time with their cells sharing
// one work-stealing cell pool, with at most -queue jobs waiting
// (beyond that POST returns 429 with Retry-After), and are polled via
// GET /v1/jobs/{id}. The
// result endpoint serves the canonical envelope — byte-identical to
// `experiments -json -canon -only <spec>` at the same seed and scale.
//
// Roles: the default standalone server executes every job locally. A
// -role coordinator server additionally registers the lease routes and
// executes registered-spec jobs on worker nodes — processes started
// with -role worker -coordinator URL, which lease batches of cells,
// run them against their own copy of the registry, and post results
// back. The merged envelope is byte-identical to a standalone run at
// any node count (`make determinism` proves it; SCALING.md has the
// argument). A dead worker's leases expire after -lease-ttl and its
// cells are re-leased.
//
// With -store-dir the server is durable: registered-spec jobs journal
// their admission, every completed cell, and their terminal envelope to
// that directory (fsynced at each commit point), and a restarted server
// pointed at the same directory resumes in-flight jobs from their last
// completed cell and keeps serving finished results. Even a SIGKILL
// loses at most the unacknowledged tail; the resumed job's envelope is
// byte-identical to an uninterrupted run. OPERATIONS.md is the runbook.
//
// On SIGTERM or SIGINT the server drains: admission stops (POST
// returns 503, /healthz reports "draining"), in-flight and queued jobs
// run to completion, results stay fetchable throughout, and the
// process exits 0 once idle. If the drain exceeds -drain-timeout the
// remaining jobs are cancelled first. A worker drains on the first
// signal — it finishes the lease it is serving (up to -drain-grace),
// tells the coordinator to stop offering it work, and exits 0; a
// second signal, or the grace expiring, abandons the lease instead,
// and the coordinator re-leases its cells at the deadline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rhohammer/internal/experiments"
	"rhohammer/internal/obs"
	"rhohammer/internal/serve"
)

func main() {
	role := flag.String("role", "standalone", "standalone, coordinator (lease cells to workers) or worker (execute leased cells)")
	addr := flag.String("addr", ":8077", "listen address (host:port; port 0 picks a free port)")
	shards := flag.Int("shards", 2, "jobs executing concurrently")
	queue := flag.Int("queue", 16, "admitted jobs waiting beyond the running ones; full queue returns 429")
	retain := flag.Int("retain", 64, "terminal jobs kept for result retrieval before oldest-first eviction")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	manifestDir := flag.String("manifest-dir", "", "write one obs manifest per finished job into this directory")
	seed := flag.Int64("seed", 42, "default seed for jobs that do not specify one")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before cancelling them")
	cacheSize := flag.Int("cache", 64, "completed results cached per (spec, seed, scale) for instant resubmission; 0 disables")
	traceCap := flag.Int("trace-cap", 0, "per-session event ring for the per-job trace endpoint (0 = default cap, negative disables capture)")
	replayMax := flag.Int64("replay-max-bytes", 0, "POST /v1/replay body bound in bytes (0 = 4 MiB default)")
	storeDir := flag.String("store-dir", "", "durable job store directory; empty keeps jobs in memory only (see OPERATIONS.md)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "coordinator: lease lifetime without renewal before cells are reclaimed")
	leaseBatch := flag.Int("lease-batch", 4, "coordinator: max cells per lease; worker: max cells requested per lease")
	coordinator := flag.String("coordinator", "", "worker: coordinator base URL, e.g. http://127.0.0.1:8077")
	workerName := flag.String("worker-name", "", "worker: label shown in GET /v1/workers and manifests")
	poll := flag.Duration("poll", 200*time.Millisecond, "worker: sleep between lease attempts when the coordinator has no work")
	parallel := flag.Int("parallel", 0, "worker: size of the cell pool that runs every leased batch (0 = GOMAXPROCS)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "worker: how long the first signal waits for the current lease before abandoning it")
	flag.Parse()

	// Counter aggregation is always on in the serving process — the
	// /metrics endpoint is part of the API, and obs provably never
	// perturbs results (TestObsDoesNotPerturbResults).
	obs.SetEnabled(true)

	switch *role {
	case "worker":
		runWorker(*coordinator, *workerName, *parallel, *leaseBatch, *poll, *drainGrace)
		return
	case "standalone", "coordinator":
	default:
		log.Fatalf("serverd: unknown -role %q (standalone, coordinator or worker)", *role)
	}

	if *cacheSize <= 0 {
		*cacheSize = -1 // Config treats 0 as "default"; the flag's 0 means off
	}
	srv, err := serve.New(serve.Config{
		Registry:       experiments.Registry,
		Shards:         *shards,
		QueueDepth:     *queue,
		Retain:         *retain,
		RetryAfter:     *retryAfter,
		ManifestDir:    *manifestDir,
		DefaultSeed:    *seed,
		CacheSize:      *cacheSize,
		TraceCap:       *traceCap,
		MaxReplayBytes: *replayMax,
		StoreDir:       *storeDir,
		Coordinator:    *role == "coordinator",
		LeaseTTL:       *leaseTTL,
		LeaseBatch:     *leaseBatch,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address line is load-bearing: the smoke harness
	// parses it to find a port-0 listener.
	fmt.Printf("serverd listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("serverd: %v: draining (timeout %v)", s, *drainTimeout)
	case err := <-serveErr:
		log.Fatalf("serverd: %v", err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("serverd: drain: %v (remaining jobs cancelled)", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("serverd: shutdown: %v", err)
	}
	log.Printf("serverd: drained, exiting")
}

// runWorker is the -role worker main loop: register with the
// coordinator and process leases until a signal arrives. The first
// signal drains — the worker finishes the lease it is serving (up to
// grace), tells the coordinator to stop offering it work, and exits
// cleanly; a second signal or the grace expiring cancels the run
// outright. Killing a worker at any moment is safe regardless: the
// coordinator reclaims its leases at their deadlines.
func runWorker(coordinator, name string, parallel, maxCells int, poll, grace time.Duration) {
	if coordinator == "" {
		log.Fatal("serverd: -role worker requires -coordinator URL")
	}
	w := &serve.Worker{
		Coordinator: coordinator,
		Registry:    experiments.Registry,
		Name:        name,
		Parallel:    parallel,
		MaxCells:    maxCells,
		Poll:        poll,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	// The worker line is load-bearing for the distsmoke harness, like
	// the listener line above.
	fmt.Printf("serverd worker polling %s\n", coordinator)
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	var err error
	select {
	case err = <-done:
	case s := <-sig:
		log.Printf("serverd worker %s: %v: draining (grace %v)", w.ID(), s, grace)
		w.BeginDrain(ctx)
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case err = <-done:
		case <-sig:
			log.Printf("serverd worker %s: second signal, abandoning lease", w.ID())
			cancel()
			err = <-done
		case <-t.C:
			log.Printf("serverd worker %s: drain grace expired, abandoning lease", w.ID())
			cancel()
			err = <-done
		}
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		log.Fatalf("serverd worker: %v", err)
	}
	log.Printf("serverd worker %s: exiting", w.ID())
}
