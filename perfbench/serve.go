package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rhohammer/internal/arch"
	"rhohammer/internal/experiments"
	"rhohammer/internal/hammer"
	"rhohammer/internal/obs"
	"rhohammer/internal/replay"
	"rhohammer/internal/serve"
	"rhohammer/internal/store"
)

// serveJob is one generated request.
type serveJob struct {
	idx    int
	at     time.Duration // open loop: scheduled send time, from the start of the load
	kind   string        // spec, resubmit, inline or replay
	label  string        // kind, or kind:spec for registered specs
	path   string
	body   []byte
	target int // resubmit: index of the job resubmitted
	trace  []byte
	done   chan struct{} // closed once the client has the job's outcome
}

// jobOutcome is what the client saw for one job.
type jobOutcome struct {
	latencyMS float64
	lateMS    float64
	// rejections counts the 429 answers the submission got before the
	// server admitted it.
	rejections int
	err        string
	result     []byte
	status     jobStatus
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Created    string `json:"created"`
	Started    string `json:"started"`
	Finished   string `json:"finished"`
	CellsTotal int    `json:"cells_total"`
	Cells      []struct {
		WallNS int64 `json:"wall_ns"`
	} `json:"cells"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

func (s jobStatus) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// generator produces the job stream from the seed. The stream is
// prefix-stable: job i is the same whatever the run length or loop
// mode, so digests of job i compare across runs. Kinds come in blocks
// of mixBlock jobs holding the mix shares exactly, shuffled by the seed;
// arrivals form a Poisson process at the configured rate.
type generator struct {
	sp    serveParams
	rng   *rand.Rand
	t     float64 // arrival time of the last job, seconds
	jobs  []*serveJob
	block []string

	specN, inlineN, replayN int
}

const (
	mixBlock = 20
	// resubmitGap is how many jobs back a resubmission reaches at
	// least, so its original has usually finished (open loop); the
	// closed loop waits for the original explicitly.
	resubmitGap = 10
)

func newGenerator(sp serveParams, seed int64) *generator {
	return &generator{sp: sp, rng: rand.New(rand.NewPCG(uint64(seed), 0x5e7e))}
}

func (g *generator) next() (*serveJob, error) {
	if len(g.block) == 0 {
		for _, m := range g.sp.Mix {
			for k := 0; k < int(math.Round(m.Share*mixBlock)); k++ {
				g.block = append(g.block, m.Kind)
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	g.t += g.rng.ExpFloat64() / g.sp.RatePerS
	i := len(g.jobs)
	j := &serveJob{idx: i, at: time.Duration(g.t * float64(time.Second)), kind: kind, path: "/v1/jobs", target: -1, done: make(chan struct{})}
	g.jobs = append(g.jobs, j)
	if kind == "resubmit" {
		for k := i - resubmitGap; k >= 0; k-- {
			if g.jobs[k].kind == "spec" {
				j.target, j.body, j.label = k, g.jobs[k].body, "resubmit:"+g.jobs[k].label[len("spec:"):]
				return j, nil
			}
		}
		j.kind = "spec" // nothing to resubmit yet
	}
	var err error
	switch j.kind {
	case "spec":
		s := g.sp.Specs[g.specN%len(g.sp.Specs)]
		g.specN++
		j.label = "spec:" + s.Name
		j.body, err = json.Marshal(map[string]any{"spec": s.Name, "seed": 1 + g.rng.Int64N(1<<31), "scale": s.Scale})
	case "inline":
		j.body, err = inlineBody(g.sp, g.rng, i, g.inlineN)
		g.inlineN++
	case "replay":
		j.path = "/v1/replay"
		j.trace, err = synthTrace(g.sp, g.rng, g.replayN)
		g.replayN++
		if err == nil {
			j.body, err = json.Marshal(map[string]any{"trace": string(j.trace)})
		}
	default:
		err = fmt.Errorf("serve: unknown job kind %q in mix", j.kind)
	}
	return j, err
}

// inlineBody builds the k-th inline job: a 1..MaxCells-cell ad-hoc fuzz
// grid, the shape API.md documents for POST /v1/jobs "inline". Cell
// count, platform, module and strategy rotate with k, so every run holds
// the same grid shapes; the seed draws the job seed.
func inlineBody(sp serveParams, rng *rand.Rand, i, k int) ([]byte, error) {
	type cfg struct {
		Instr     string `json:"instr"`
		Banks     int    `json:"banks,omitempty"`
		Barrier   string `json:"barrier,omitempty"`
		Nops      int    `json:"nops,omitempty"`
		Obfuscate bool   `json:"obfuscate,omitempty"`
	}
	var cells []map[string]any
	for c := 0; c < 1+k%sp.Inline.MaxCells; c++ {
		a, ok := arch.ByName(sp.Inline.Archs[(k+c)%len(sp.Inline.Archs)])
		if !ok {
			return nil, fmt.Errorf("serve: unknown inline arch")
		}
		choices := []cfg{
			{Instr: "load", Banks: 1, Barrier: "none"},
			{Instr: "prefetcht2", Banks: 1, Barrier: "nop", Nops: hammer.TunedNops(a), Obfuscate: true},
			{Instr: "prefetcht2", Banks: hammer.OptimalBanks(a), Barrier: "nop", Nops: hammer.TunedNopsMulti(a), Obfuscate: true},
		}
		cells = append(cells, map[string]any{
			"key":    fmt.Sprintf("c%d", c),
			"arch":   a.Name,
			"dimm":   sp.Inline.DIMMs[(k/len(sp.Inline.Archs)+c)%len(sp.Inline.DIMMs)],
			"config": choices[(k+2*c)%len(choices)],
			"budget": map[string]any{"patterns": sp.Inline.Patterns, "locations": 1, "duration_ns": sp.Inline.DurationNS},
		})
	}
	return json.Marshal(map[string]any{
		"inline": map[string]any{"name": fmt.Sprintf("pb%d", i), "cells": cells},
		"seed":   1 + rng.Int64N(1<<31),
	})
}

// synthTrace generates the k-th replay job's headered ACT/REF trace: a
// double-sided hammer on one seed-drawn victim row, with a REF every
// tREFI, on a module that rotates with k.
func synthTrace(sp serveParams, rng *rand.Rand, k int) ([]byte, error) {
	id := sp.Replay.DIMMs[k%len(sp.Replay.DIMMs)]
	d, ok := arch.DIMMByID(id)
	if !ok {
		return nil, fmt.Errorf("serve: unknown replay DIMM %q", id)
	}
	var b bytes.Buffer
	b.WriteString(replay.HeaderLine(id, 1+rng.Int64N(1<<31)))
	bank := rng.IntN(d.TotalBanks())
	victim := 16 + rng.Uint64N(d.RowsPerBank-32)
	const tREFI, tRC = 7800, 46
	t, nextRef := int64(0), int64(tREFI)
	for seq := 0; seq < sp.Replay.Events; seq++ {
		if t >= nextRef {
			fmt.Fprintf(&b, "{\"seq\":%d,\"t_ns\":%d,\"layer\":\"dram\",\"kind\":\"ref\"}\n", seq, t)
			nextRef += tREFI
			continue
		}
		row := victim - 1
		if seq%2 == 1 {
			row = victim + 1
		}
		fmt.Fprintf(&b, "{\"seq\":%d,\"t_ns\":%d,\"layer\":\"dram\",\"kind\":\"act\",\"bank\":%d,\"row\":%d}\n", seq, t, bank, row)
		t += tRC + int64(rng.IntN(8))
	}
	return b.Bytes(), nil
}

// connCounter caps nothing itself; it records how many client
// connections were open at once, to check the transport's cap held.
type connCounter struct {
	open, peak atomic.Int64
	dialer     net.Dialer
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.c.open.Add(-1) })
	return c.Conn.Close()
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := c.dialer.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := c.open.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	return &countedConn{Conn: conn, c: c}, nil
}

// leaseTransport is the workers' http.RoundTripper: it counts lease
// acquisitions and, in the traced run, records a span around every
// lease call.
type leaseTransport struct {
	base             http.RoundTripper
	tr               *tracer
	acquires, grants atomic.Int64
}

func (t *leaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "serve.worker_call"
	switch p := req.URL.Path; {
	case p == "/v1/leases":
		name = "serve.lease_acquire"
	case strings.HasSuffix(p, "/complete"):
		name = "serve.lease_complete"
	case strings.HasSuffix(p, "/renew"):
		name = "serve.lease_renew"
	}
	sp := t.tr.begin(name, "worker", nil)
	resp, err := t.base.RoundTrip(req)
	sp.end()
	if name == "serve.lease_acquire" {
		t.acquires.Add(1)
		if err == nil && resp.StatusCode == http.StatusCreated {
			t.grants.Add(1)
		}
	}
	return resp, err
}

// coordinator is one in-process serve.Server on a loopback listener.
type coordinator struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

func startCoordinator(storeDir string) (*coordinator, error) {
	// Every field but these stays at serverd's defaults.
	srv, err := serve.New(serve.Config{Registry: experiments.Registry, StoreDir: storeDir, Coordinator: true})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &coordinator{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { c.done <- c.http.Serve(ln) }()
	return c, nil
}

// stop drains the coordinator and closes its listener.
func (c *coordinator) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := c.srv.Drain(ctx)
	serr := c.http.Shutdown(ctx)
	<-c.done
	return errors.Join(derr, serr)
}

// waitHealthy polls /healthz until it answers ok.
func waitHealthy(hc *http.Client, url string, deadline time.Time) error {
	for {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coordinator at %s not healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape reads GET /metrics into a name-keyed map.
func scrape(hc *http.Client, url string) (map[string]int64, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// client is the load generator's HTTP side.
type client struct {
	hc   *http.Client
	url  string
	poll time.Duration
	tr   *tracer
}

func (c *client) call(method, path string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// resendLimit is how long after its due time a refused job is still
// sent again.
const resendLimit = time.Minute

// retryAfter reads a 429's Retry-After header (whole seconds), as
// API.md asks clients to honor it; one second when it is missing.
func retryAfter(h http.Header) time.Duration {
	if n, err := strconv.Atoi(h.Get("Retry-After")); err == nil && n >= 0 {
		return time.Duration(n) * time.Second
	}
	return time.Second
}

// run submits one job at its due time and follows it to its result.
func (c *client) run(j *serveJob, due time.Time) (o jobOutcome) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	o.lateMS = float64(time.Since(due).Nanoseconds()) / 1e6
	op := fmt.Sprintf("job%d", j.idx)

	var code int
	var body []byte
	for {
		sp := c.tr.begin("serve.submit", op, nil)
		var hdr http.Header
		var err error
		code, body, hdr, err = c.call("POST", j.path, j.body)
		sp.end()
		if err != nil {
			o.err = "submit: " + err.Error()
			return o
		}
		if code != http.StatusTooManyRequests {
			break
		}
		// The queue is full: send the same job again once the server's
		// Retry-After has passed. The job keeps its place in the stream,
		// so later digests stay aligned; it counts as refused.
		o.rejections++
		if time.Since(due) > resendLimit {
			o.err = fmt.Sprintf("submit refused %d times: %s", o.rejections, body)
			return o
		}
		time.Sleep(retryAfter(hdr))
	}
	var acc struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if code != http.StatusAccepted || json.Unmarshal(body, &acc) != nil {
		o.err = fmt.Sprintf("submit: %d %s", code, body)
		return o
	}
	st := jobStatus{State: acc.State}
	for !st.terminal() {
		// Jittered polling: a fixed period would snap latencies to its
		// multiples.
		time.Sleep(c.poll/2 + rand.N(c.poll))
		sp := c.tr.begin("serve.poll", op, nil)
		var err error
		code, body, _, err = c.call("GET", "/v1/jobs/"+acc.ID, nil)
		sp.end()
		if err != nil || code != http.StatusOK || json.Unmarshal(body, &st) != nil {
			o.err = fmt.Sprintf("poll: %d %v %s", code, err, body)
			return o
		}
	}
	if st.State != "done" {
		o.err = fmt.Sprintf("job %s ended %s: %s", acc.ID, st.State, st.Error)
		return o
	}
	sp := c.tr.begin("serve.result", op, nil)
	code, body, _, err := c.call("GET", "/v1/jobs/"+acc.ID+"/result", nil)
	sp.end()
	if err != nil || code != http.StatusOK {
		o.err = fmt.Sprintf("result: %d %v", code, err)
		return o
	}
	o.result = body
	o.latencyMS = float64(time.Since(due).Nanoseconds()) / 1e6
	if st.ID == "" { // born done: read the status for its metadata, outside the latency
		if code, sbody, _, err := c.call("GET", "/v1/jobs/"+acc.ID, nil); err == nil && code == http.StatusOK {
			json.Unmarshal(sbody, &st)
		}
	}
	o.status = st
	return o
}

func runServe(o runOpts, tr *tracer) (*pass, error) {
	sp := o.params.Serve
	p := newPass()
	obs.SetEnabled(true) // serverd arms the obs layer unconditionally
	nproc := runtime.NumCPU()

	gen := newGenerator(sp, o.seed)
	var jobs []*serveJob
	for o.openLoop {
		j, err := gen.next()
		if err != nil {
			return nil, err
		}
		if len(jobs) >= max(1, sp.OpenLoopMinJobs) && j.at.Seconds() >= o.seconds {
			break
		}
		jobs = append(jobs, j)
	}
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)

	coord, err := startCoordinator(filepath.Join(storeDir, "store"))
	if err != nil {
		return nil, err
	}
	conns := &connCounter{}
	cl := &client{
		hc: &http.Client{Transport: &http.Transport{
			DialContext: conns.dial, MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc,
		}},
		url: coord.url, poll: time.Duration(sp.PollMS * float64(time.Millisecond)), tr: tr,
	}
	defer cl.hc.CloseIdleConnections()
	if err := waitHealthy(cl.hc, coord.url, time.Now().Add(30*time.Second)); err != nil {
		coord.stop()
		return nil, err
	}

	// nproc in-process workers, at serverd's worker defaults.
	lt := &leaseTransport{base: &http.Transport{}, tr: tr}
	wctx, stopWorkers := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wk := &serve.Worker{Coordinator: coord.url, Registry: experiments.Registry,
			Name: fmt.Sprintf("pb-w%d", w), Client: &http.Client{Transport: lt}}
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			wk.Run(wctx)
		}()
	}
	shutdown := func() error {
		err := coord.stop()
		stopWorkers()
		wwg.Wait()
		lt.base.(*http.Transport).CloseIdleConnections()
		return err
	}

	before, err := scrape(cl.hc, coord.url)
	if err != nil {
		shutdown()
		return nil, err
	}
	mem := startMem()
	outs := make([]jobOutcome, len(jobs))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	if o.openLoop {
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i] = cl.run(j, start.Add(j.at))
				close(j.done)
			}()
		}
	} else {
		// Closed loop: each client sends its next job once the previous
		// result is in; a resubmission first waits for its original.
		var mu sync.Mutex
		claim := func() (j, target *serveJob, err error) {
			mu.Lock()
			defer mu.Unlock()
			if since(start) >= o.seconds {
				return nil, nil, nil
			}
			if j, err = gen.next(); err != nil {
				return nil, nil, err
			}
			jobs = append(jobs, j)
			outs = append(outs, jobOutcome{})
			if j.target >= 0 {
				target = jobs[j.target]
			}
			return j, target, nil
		}
		var genErr atomic.Value
		time.Sleep(time.Until(start))
		for c := 0; c < sp.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j, target, err := claim()
					if err != nil {
						genErr.Store(err)
					}
					if j == nil {
						return
					}
					if target != nil {
						<-target.done
					}
					out := cl.run(j, time.Now())
					mu.Lock()
					outs[j.idx] = out
					mu.Unlock()
					close(j.done)
				}
			}()
		}
		wg.Wait()
		if err, ok := genErr.Load().(error); ok {
			shutdown()
			return nil, err
		}
	}
	wg.Wait()
	wall := since(start)
	after, err := scrape(cl.hc, coord.url)
	if err != nil {
		shutdown()
		return nil, err
	}
	if tr != nil {
		mem.stop(p.layer)
	}
	journalRecords, journalBytes := journalSize(filepath.Join(storeDir, "store"))
	if err := shutdown(); err != nil {
		p.fail("coordinator drain: %v", err)
	}

	// Outcomes, digests and the cache-hit byte check.
	var lat, late, cellMS []float64
	var misses, completed, cached, rejected, localCells int
	byKind := map[string][]float64{}
	for i, out := range outs {
		j := jobs[i]
		p.attempted++
		late = append(late, out.lateMS)
		rejected += out.rejections
		// A miss: failed, refused at least once, or over the latency limit.
		if out.err != "" || out.rejections > 0 || out.latencyMS > sp.LatencyLimitMS {
			misses++
		}
		if out.err != "" {
			p.failed++
			p.fail("job %d (%s): %s", i, j.kind, out.err)
			continue
		}
		completed++
		lat = append(lat, out.latencyMS)
		label := j.label
		if label == "" {
			label = j.kind
		}
		byKind[label] = append(byKind[label], out.latencyMS)
		p.units = append(p.units, digestOf([]byte(j.kind), out.result))
		if j.target >= 0 && outs[j.target].err == "" && !bytes.Equal(out.result, outs[j.target].result) {
			p.fail("job %d resubmits job %d but its result bytes differ", i, j.target)
		}
		st := out.status
		if st.Cached {
			cached++
			continue
		}
		if j.kind == "inline" || j.kind == "replay" {
			localCells += st.CellsTotal
		}
		for _, c := range st.Cells {
			cellMS = append(cellMS, float64(c.WallNS)/1e6)
		}
		created, e1 := time.Parse(time.RFC3339Nano, st.Created)
		started, e2 := time.Parse(time.RFC3339Nano, st.Started)
		finished, e3 := time.Parse(time.RFC3339Nano, st.Finished)
		if e1 == nil && e2 == nil && e3 == nil {
			op := fmt.Sprintf("job%d", i)
			tr.record("serve.queue_wait", op, created, started)
			tr.record("serve.run", op, started, finished)
		}
	}
	if peak := conns.peak.Load(); peak > int64(nproc) {
		p.fail("client opened %d connections at once, cap is nproc=%d", peak, nproc)
	}
	acts, _ := obsDelta(before, after, cDramACTs)
	p.wall = wall
	p.e2e["sim_acts_per_s"] = ratio(acts, wall)
	p.e2e["ops_per_s"] = ratio(float64(completed), wall)
	p.e2e["op_p50_ms"] = quantile(lat, 0.5)
	p.e2e["op_p90_ms"] = quantile(lat, 0.9)
	p.cost = ratio(wall, float64(completed))
	p.notes["jobs"] = len(jobs)
	kindP50 := map[string]any{}
	for k, v := range byKind {
		kindP50[k] = map[string]float64{"n": float64(len(v)), "p50_ms": median(v)}
	}
	p.notes["latency_by_kind"] = kindP50
	p.notes["job_miss_ratio"] = ratio(float64(misses), float64(p.attempted))
	p.notes["rejected"] = rejected
	p.notes["client_connections"] = conns.peak.Load()
	if o.openLoop {
		p.notes["loop"] = fmt.Sprintf("open, %g jobs/s", sp.RatePerS)
		p.notes["generator_late_ms"] = map[string]float64{"median": median(late), "max": quantile(late, 1)}
		p.layer["serve.job_miss_ratio"] = ratio(float64(misses), float64(p.attempted))
		p.layer["serve.job_p50_ms"] = p.e2e["op_p50_ms"]
		p.layer["serve.job_p90_ms"] = p.e2e["op_p90_ms"]
		p.layer["serve.generator_late_ms.max"] = quantile(late, 1)
	} else {
		p.notes["loop"] = fmt.Sprintf("closed, %d clients", sp.Clients)
	}

	// The restart an operator pays: a fresh coordinator on copies of
	// the store the load left behind, from serve.New to /healthz ok.
	var boots []float64
	for r := 0; r < sp.Restarts; r++ {
		dir := filepath.Join(storeDir, fmt.Sprintf("restart%d", r))
		if err := copyDir(filepath.Join(storeDir, "store"), dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		c2, err := startCoordinator(dir)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		herr := waitHealthy(cl.hc, c2.url, time.Now().Add(30*time.Second))
		boots = append(boots, since(t0))
		if err := errors.Join(herr, c2.stop()); err != nil {
			p.fail("restart %d: %v", r, err)
		}
	}
	p.e2e["setup_s"] = median(boots)
	p.e2e["peak_rss_mb"] = peakRSSMB()

	if tr != nil {
		p.layer["serve.cache_hit_ratio"] = ratio(float64(cached), float64(completed))
		p.layer["serve.rejected"] = float64(rejected)
		p.layer["campaign.cell_ms"] = median(cellMS)
		p.layer["serve.lease_acquire_hit_ratio"] = ratio(float64(lt.grants.Load()), float64(lt.acquires.Load()))
		leased, ok1 := obsDelta(before, after, "rhohammer_lease_cells_leased_total")
		grants, ok2 := obsDelta(before, after, "rhohammer_lease_grants_total")
		if ok1 && ok2 {
			p.layer["serve.lease_cells_per_grant"] = ratio(leased, grants)
			p.layer["serve.leased_cell_share"] = ratio(leased, leased+float64(localCells))
		} else {
			p.absent("serve.lease_cells_per_grant", "serve.leased_cell_share")
		}
		if v, ok := obsDelta(before, after, "rhohammer_lease_reclaims_total"); ok {
			p.layer["serve.lease_reclaims"] = v
		} else {
			p.absent("serve.lease_reclaims")
		}
		obsLayer(p, before, after, false)
		p.layer["store.journal_records"] = float64(journalRecords)
		p.layer["store.journal_bytes"] = float64(journalBytes)
		dir := filepath.Join(storeDir, "open-copy")
		if err := copyDir(filepath.Join(storeDir, "store"), dir); err != nil {
			return nil, err
		}
		span := tr.begin("store.open", "restart", nil)
		st, _, err := store.Open(dir)
		span.end()
		if err != nil {
			p.fail("store.Open: %v", err)
		} else {
			st.Close()
		}
		for _, j := range jobs {
			if j.kind != "replay" {
				continue
			}
			op := fmt.Sprintf("job%d", j.idx)
			span := tr.begin("replay.decode", op, nil)
			f, err := replay.DecodeBytes(j.trace, replay.Options{})
			span.end()
			if err != nil {
				p.fail("replay decode of job %d: %v", j.idx, err)
				continue
			}
			span = tr.begin("replay.run", op, nil)
			replay.Run(f)
			span.end()
		}
		p.tr = tr
	}
	return p, nil
}

// journalSize counts the records and bytes of the store's JSONL
// journal files.
func journalSize(dir string) (records, size int) {
	files, _ := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		size += len(data)
		records += bytes.Count(data, []byte("\n"))
	}
	return records, size
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
