GO ?= go

.PHONY: check fmt-check build test race allocs vet bench bench-smoke bench-module fuzz chaos obs-smoke cluster partition syndicate economics

# The full pre-merge gate, each test once: formatting, vet, build, the whole
# suite under the race detector (the replicate runner, signal engine,
# httpgate, cluster gossip and detect monitors are concurrent), the
# allocation and memory budgets without it, a one-iteration benchmark
# compile+run, and the nested bench/ module's own vet and tests (root ./...
# does not reach it).
check: fmt-check vet build race allocs bench-smoke bench-module

# The targets below are local shortcuts: -run subsets of `race` for
# iterating on one subsystem. They gate nothing — check and CI run every
# test they name exactly once, through `race`.

# cluster runs the multi-node gate-fleet suite — routing, anti-entropy
# replication and the worker/node golden determinism tests — under the
# race detector (gossip interleaves with request handling).
cluster:
	$(GO) test -race -count=1 ./internal/cluster

# partition runs the socket-gossip and fault-injection fleet suites
# under the race detector: the HTTP transport, the fault transport, the
# wire codec, and the E16 partition-scenario behaviour tests (drop curve,
# heal convergence).
partition:
	$(GO) test -race -count=1 -timeout 300s -run 'Partition|HTTPTransport|FaultTransport|SnapshotWire|FetchRetry|FetchTimeout|Degraded' ./cmd/fraudsim ./internal/cluster

# syndicate runs the E17 entity-linkage suites under the race detector:
# the entitygraph package, the gate's entity layer, the detect arm
# registry, and the coordinated-ring scenario behaviour test (leak
# contrast, honest admit).
syndicate:
	$(GO) test -race -count=1 ./internal/entitygraph
	$(GO) test -race -count=1 -run 'Syndicate|Entity|Arm|GraphFeeder' ./cmd/fraudsim ./internal/loadgen ./internal/httpgate ./internal/detect

# economics runs the E18 attacker-economics suites under the race
# detector: the account store, the gate's account layer, the decoy set,
# and the three-arm ROI scenario behaviour test (strict ROI ordering,
# honest admit).
economics:
	$(GO) test -race -count=1 ./internal/account
	$(GO) test -race -count=1 -run 'Economics|Account|Decoy|ROI|Econ' ./cmd/fraudsim ./internal/loadgen ./internal/httpgate ./internal/detect ./internal/mitigate

# obs-smoke boots the telemetry mux, scrapes /metrics and /healthz, and
# fails if the exposition contains a single unparseable line.
obs-smoke:
	$(GO) test -count=1 -run 'ObsSmoke|ServeTelemetry' ./cmd/fraudsim

# chaos runs the fault-injection suites under the race detector: the
# gate-level flap tests and the -exp chaos outage experiment.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/httpgate ./internal/core ./internal/faultinject ./internal/resilience

# fmt-check fails when gofmt would rewrite any file (bench/ included).
fmt-check:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# allocs enforces the allocation and memory budgets: every test that counts
# mallocs or reads runtime.MemStats skips under the race detector, whose
# instrumentation perturbs the counts, so `race` alone gates none of them.
# Only the tests named *Alloc* run here; the few of them that do not skip
# under -race run in both for different reasons (races there, counts here).
allocs:
	$(GO) test -count=1 -run 'Alloc' ./...

# bench runs the repository's benchmark (see BENCHMARK.json): five
# end-to-end workloads plus the per-layer probes, every output checked
# against bench/testdata/golden_seed1.json. It writes bench/out/result.json
# and exits non-zero when any workload reports a failed operation.
bench:
	$(GO) run -C bench .

# bench-smoke proves every benchmark still compiles and completes without
# measuring anything (one iteration each).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./...

# fuzz hammers what faces untrusted bytes for 15 s each, starting from the
# seed corpus the plain test run already replays: the two gossip decoders
# (the FAS1 sketch-state codec, every decoded ring's reads held equal to a
# full scan; the FGS1 snapshot codec), the gate's in-place request scans,
# held equal to net/url on every raw query and to net/http on every Cookie
# header, its X-Forwarded-For keying, held equal to net/netip, and the
# /metrics exposition reader, whose accepted input must survive a write and
# re-parse unchanged.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeState -fuzztime 15s ./internal/signal
	$(GO) test -run=^$$ -fuzz=FuzzDecodeSnapshot -fuzztime 15s ./internal/cluster
	$(GO) test -run=^$$ -fuzz=FuzzQueryValue -fuzztime 15s ./internal/httpgate
	$(GO) test -run=^$$ -fuzz=FuzzCookieValue -fuzztime 15s ./internal/httpgate
	$(GO) test -run=^$$ -fuzz=FuzzRemoteIP -fuzztime 15s ./internal/httpgate
	$(GO) test -run=^$$ -fuzz=FuzzParseText -fuzztime 15s ./internal/obs

# bench-module vets and tests the benchmark harness, a module of its own.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...
