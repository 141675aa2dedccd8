GO ?= go

.PHONY: check fmt-check build test race allocs vet bench bench-smoke bench-module fuzz

# The full pre-merge gate, each test once: formatting, vet, build, the whole
# suite under the race detector (the replicate runner, signal engine,
# httpgate, cluster gossip and detect monitors are concurrent), the
# allocation and memory budgets without it, a one-iteration benchmark
# compile+run, and the nested bench/ module's own vet and tests (root ./...
# does not reach it).
check: fmt-check vet build race allocs bench-smoke bench-module

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
# seed corpus the plain test run already replays: the gossip decoders (the
# FAS1 sketch-state codec, every decoded ring's reads held equal to a full
# scan; the FAS1 rate view fleet nodes read, held equal to that codec; the
# FGS1 snapshot codec), the gate's in-place request scans,
# held equal to net/url on every raw query and to net/http on every Cookie
# header, its X-Forwarded-For keying, held equal to net/netip, and the
# /metrics exposition reader, whose accepted input must survive a write and
# re-parse unchanged.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecodeState -fuzztime 15s ./internal/signal
	$(GO) test -run=^$$ -fuzz=FuzzDecodeRates -fuzztime 15s ./internal/signal
	$(GO) test -run=^$$ -fuzz=FuzzDecodeSnapshot -fuzztime 15s ./internal/cluster
	$(GO) test -run=^$$ -fuzz=FuzzQueryValue -fuzztime 15s ./internal/httpgate
	$(GO) test -run=^$$ -fuzz=FuzzCookieValue -fuzztime 15s ./internal/httpgate
	$(GO) test -run=^$$ -fuzz=FuzzRemoteIP -fuzztime 15s ./internal/httpgate
	$(GO) test -run=^$$ -fuzz=FuzzParseText -fuzztime 15s ./internal/obs

# bench-module vets and tests the benchmark harness, a module of its own.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...
