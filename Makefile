# SensorSafe build/test entry points.

GO ?= go

.PHONY: all build vet fmtcheck sslint sslint-sarif lint test test-short race cover bench bench-check bench-tracing bench-storage bench-overload bench-rules harness chaos fuzz fuzz-seeds examples clean

all: build lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmtcheck fails when any file needs formatting.
fmtcheck:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# sslint runs the repo-local static-analysis suite (internal/lint): the
# interprocedural privacyflow and lockorder analyzers plus atomicwrite,
# ctxpropagate, mutexguard, obsnames, ruleindexuse, and servertimeouts
# over every package. Exit 1 on findings.
sslint:
	$(GO) run ./cmd/sslint ./...

# sslint-sarif writes the suite's findings as SARIF 2.1.0 (sslint.sarif)
# for code-scanning upload; the target itself always succeeds.
sslint-sarif:
	$(GO) run ./cmd/sslint -sarif ./... > sslint.sarif || true

# lint = vet + gofmt check + domain analyzers.
lint: vet fmtcheck sslint

test:
	$(GO) test ./...

# Race-detector pass over the whole module (obs + httpapi are the
# concurrency hot spots).
race:
	$(GO) test -race ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./internal/...

bench:
	$(GO) test -bench=. -benchmem .

# bench/ is its own module, so root `go test ./...` neither builds nor
# tests it; run this whenever a package it imports changes.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate every experiment table (EXPERIMENTS.md).
harness:
	$(GO) run ./cmd/benchharness

harness-quick:
	$(GO) run ./cmd/benchharness -quick

# BENCH_6.json: tracing overhead on the rule-evaluation release path
# (target: < 5% vs tracing off).
bench-tracing:
	$(GO) run ./cmd/benchharness -only BENCH6 -bench6-out BENCH_6.json

# BENCH_7.json: persistent segment store — cold-restart time,
# full-range scan throughput vs the in-memory engine (budget: 2x),
# and kill-during-compaction chaos. -quick keeps it CI-sized; run
# without -quick locally for the paper-scale 100k-record numbers.
bench-storage:
	$(GO) run ./cmd/benchharness -only E12 -quick -e12-out BENCH_7.json

# BENCH_8.json: overload protection — goodput and p99 at 1x/2x/5x
# capacity with admission control on vs off (bar: >= 80% of peak goodput
# at 5x), plus the circuit breaker's retry-storm bound against a downed
# store. -quick keeps it CI-sized.
bench-overload:
	$(GO) run ./cmd/benchharness -only E13 -quick -e13-out BENCH_8.json

# BENCH_9.json: compiled rule index vs the linear engine — decision
# latency at 1..10k rules (cold and warm decision cache; target: >= 10x
# over linear at 10k, near-flat indexed latency) plus the enforcement
# and federated fan-out kernel deltas. -quick keeps it CI-sized; run
# without -quick locally for the 10k-rule sweep.
bench-rules:
	$(GO) run ./cmd/benchharness -only E14 -e14-out BENCH_9.json

# Chaos suite: every network hop through the seeded fault-injecting
# transport (internal/resilience/faultnet). The seed is fixed in the test
# source, so a red run reproduces bit for bit.
chaos:
	$(GO) test -run TestChaos -count=1 -v ./internal/httpapi/

# Short fuzz campaigns on the untrusted-input parsers and the WAL replay.
fuzz:
	$(GO) test -fuzz=FuzzRuleJSON -fuzztime=30s ./internal/rules/
	$(GO) test -fuzz=FuzzUnmarshalBinary -fuzztime=30s ./internal/wavesegment/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/query/
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=30s ./internal/segstore/

# fuzz-seeds replays the checked-in fuzz corpora once (no new inputs) so
# CI catches regressions on known-tricky parser inputs cheaply.
fuzz-seeds:
	$(GO) test -run 'Fuzz' -count=1 ./internal/rules/ ./internal/wavesegment/ ./internal/query/ ./internal/segstore/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/behavioralstudy
	$(GO) run ./examples/healthcoach
	$(GO) run ./examples/ruleaware
	$(GO) run ./examples/audittrail

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
