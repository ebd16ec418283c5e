GO ?= go
FUZZTIME ?= 10s
SERVESMOKE_OUT ?= smoke-artifacts
DISTSMOKE_OUT ?= distsmoke-artifacts

.PHONY: build vet fmt test race determinism doccheck verify benchdiff fuzz perfbench-test servesmoke distsmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when a Go file anywhere in the tree (perfbench included)
# is not gofmt-clean; `gofmt -l .` lists the offenders.
fmt:
	test -z "$$(gofmt -l .)"

# The experiments package alone runs for many minutes (campaign grids
# plus golden renders); the explicit -timeout keeps a noisy shared CI
# host from tripping go test's 10m per-package default.
test:
	$(GO) test -timeout 20m ./...

# The race detector runs across the whole tree; -short skips the
# multi-minute campaign tests and trims the differential-oracle trace
# count so the check stays within a few minutes.
race:
	$(GO) test -race -short -timeout 20m ./...

# determinism proves the campaign contract under the race detector:
# rendered experiment bytes are identical at 1 and 8 workers, the
# pool's synthetic grids match a serial reference at every
# worker count, and the distributed fabric produces byte-identical
# canonical envelopes for standalone, 1-, 2- and 4-worker-node
# topologies (SCALING.md has the argument).
determinism:
	$(GO) test -race -run 'Determinism' ./internal/campaign ./internal/experiments ./internal/serve

# doccheck keeps the documentation from rotting: every package must
# carry a package doc comment, every relative link in the root
# markdown documents must resolve, API.md must document every route
# the campaign server registers and exactly the fields of its job and
# replay request bodies, and `make fuzz` must run every native fuzz
# target in the module. (vet is listed so `make doccheck` stands
# alone as the docs gate; verify already runs it.)
doccheck: vet
	$(GO) test -run 'TestPackageDocComments|TestDocLinks|TestAPIDocCoversRoutes|TestAPIDocRequestTables|TestOperationsDocCoversMetrics|TestMakeFuzzRunsEveryFuzzTarget' .

verify: build fmt vet test race determinism doccheck

# fuzz gives each native fuzz target a short budget on top of the
# checked-in seed corpus: the differential oracle (random command
# traces through fast and reference substrates), the dram sampler /
# pTRR table policies against naive mirrors, the compiled hammer
# payload against the interpreted engine, the chain planner, the
# trace-replay codec (arbitrary bytes must decode to typed errors or
# replayable files, never panic), stats.Rand's value stream (any
# seed and method sequence must draw math/rand's values), and lease
# completion (any completion cell gets a 200 or a 400 that applies
# nothing, and the coordinator never panics).
# -fuzzminimizetime 0s spends the whole budget on new inputs instead of
# shrinking each one, which can take a 10 s budget entirely; a failing
# input is still written to testdata/fuzz and fails the run.
# TestMakeFuzzRunsEveryFuzzTarget (make doccheck) fails when a fuzz
# target is missing here. Override FUZZTIME for a longer soak, e.g.
# `make fuzz FUZZTIME=5m`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDifferentialTrace$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/refmodel
	$(GO) test -run '^$$' -fuzz '^FuzzTRRSampler$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/dram
	$(GO) test -run '^$$' -fuzz '^FuzzPTRRTable$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/dram
	$(GO) test -run '^$$' -fuzz '^FuzzChainPlan$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/chain
	$(GO) test -run '^$$' -fuzz '^FuzzPayloadDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/hammer
	$(GO) test -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/replay
	$(GO) test -run '^$$' -fuzz '^FuzzRandStream$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzLeaseComplete$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 0s ./internal/serve

# perfbench-test runs the repository benchmark's own tests. perfbench
# is a separate Go module (it imports this one through a replace
# directive), so `go test ./...` here never compiles it, yet it calls
# the campaign and serve APIs directly.
perfbench-test:
	cd perfbench && $(GO) test -race -short .

# benchdiff is the benchmark regression gate: it builds the pinned
# benchmarks' test binaries at HEAD^ and in the working tree, runs the
# two alternately on this host for 41 rounds, and fails when head's
# ns/op is more than 10% above base's in the median round, on any
# allocs/op rise, or on a pinned benchmark gone missing (cmd/benchdiff
# has the rules). The report lands in benchdiff-report.txt for CI to
# upload.
benchdiff:
	$(GO) run ./cmd/benchdiff -base HEAD^ -report benchdiff-report.txt

# servesmoke boots the real serverd binary, submits a short campaign
# job over HTTP, diffs the served result against the golden canonical
# envelope, then SIGTERM-drains it with a job still in flight and
# requires a clean exit. Artifacts (result, metrics, per-job
# manifests) land in SERVESMOKE_OUT; CI uploads them.
servesmoke:
	RHOHAMMER_SERVESMOKE=1 SERVESMOKE_OUT=$(abspath $(SERVESMOKE_OUT)) \
		$(GO) test -count=1 -v -run 'TestServeSmoke' ./cmd/serverd

# distsmoke boots the real distributed fabric: one serverd coordinator
# plus two serverd workers (separate processes on localhost), submits a
# golden-pinned campaign, diffs the merged envelope against a
# standalone serverd run byte for byte, checks the manifest records
# both nodes, then SIGTERM-drains all three and requires clean exits.
# A second leg SIGKILLs a -store-dir coordinator mid-job and requires a
# restarted process on the same address to resume from the journal and
# produce the same bytes (OPERATIONS.md describes the recovery it
# exercises). Artifacts (envelopes, metrics, manifests, the store
# directory with its journal and snapshots) land in DISTSMOKE_OUT; CI
# uploads them.
distsmoke:
	RHOHAMMER_DISTSMOKE=1 DISTSMOKE_OUT=$(abspath $(DISTSMOKE_OUT)) \
		$(GO) test -count=1 -v -timeout 10m -run 'TestDistSmoke' ./cmd/serverd
