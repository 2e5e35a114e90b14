# SensorSafe build/test entry points.

GO ?= go

.PHONY: all build vet fmtcheck sslint sslint-sarif lint test test-short race cover bench bench-check bench-smoke chaos fuzz fuzz-seeds examples clean

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

# bench-smoke runs every Benchmark* in the module once, so a benchmark
# that no longer compiles or fails its own checks breaks the build.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Chaos suite: every network hop through the seeded fault-injecting
# transport (internal/resilience/faultnet). The seed is fixed in the test
# source, so a red run reproduces bit for bit.
chaos:
	$(GO) test -run TestChaos -count=1 -v ./internal/httpapi/

# Short fuzz campaigns on every fuzzer: the untrusted-input parsers
# (including the traceparent header and context labels), the Fig. 5
# JSON decoders (each accepted input must be a fixed point of the
# codec), the binary frame decoders
# (upload, query answer, stream batch), the WAL replay, the
# segment file format, the manifest, the cursor log and the broker's
# log (its inputs each open a broker on disk, so minimizing one is cut
# short to keep the campaign fuzzing). Patterns are
# anchored because -fuzz must match exactly one target per package.
fuzz:
	$(GO) test -fuzz='^FuzzRuleJSON$$' -fuzztime=30s ./internal/rules/
	$(GO) test -fuzz='^FuzzParseContextLabel$$' -fuzztime=30s ./internal/rules/
	$(GO) test -fuzz='^FuzzUnmarshalBinary$$' -fuzztime=30s ./internal/wavesegment/
	$(GO) test -fuzz='^FuzzUnmarshalJSONSegment$$' -fuzztime=30s ./internal/wavesegment/
	$(GO) test -fuzz='^FuzzQueryResponse$$' -fuzztime=30s ./internal/httpapi/
	$(GO) test -fuzz='^FuzzUploadFrame$$' -fuzztime=30s ./internal/httpapi/
	$(GO) test -fuzz='^FuzzQueryFrame$$' -fuzztime=30s ./internal/httpapi/
	$(GO) test -fuzz='^FuzzBatchFrame$$' -fuzztime=30s ./internal/stream/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/query/
	$(GO) test -fuzz='^FuzzWALReplay$$' -fuzztime=30s ./internal/segstore/
	$(GO) test -fuzz='^FuzzSegmentFile$$' -fuzztime=30s ./internal/segstore/
	$(GO) test -fuzz='^FuzzManifest$$' -fuzztime=30s ./internal/segstore/
	$(GO) test -fuzz='^FuzzCursorLog$$' -fuzztime=30s ./internal/datastore/
	$(GO) test -fuzz='^FuzzBrokerLog$$' -fuzztime=30s -fuzzminimizetime=200x ./internal/broker/
	$(GO) test -fuzz='^FuzzTraceparent$$' -fuzztime=30s ./internal/obs/trace/

# fuzz-seeds replays the checked-in fuzz corpora once (no new inputs) so
# CI catches regressions on known-tricky parser inputs cheaply.
fuzz-seeds:
	$(GO) test -run 'Fuzz' -count=1 ./internal/rules/ ./internal/wavesegment/ ./internal/httpapi/ ./internal/query/ ./internal/segstore/ ./internal/datastore/ ./internal/broker/ ./internal/obs/trace/ ./internal/stream/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/behavioralstudy
	$(GO) run ./examples/healthcoach
	$(GO) run ./examples/ruleaware
	$(GO) run ./examples/audittrail

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
