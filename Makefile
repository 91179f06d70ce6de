# Tier-1 verification for the MonetDB/XQuery reproduction.
#
# `make check` is the habit: build everything, vet everything (the xmark
# generator once shipped a vet failure that broke `go test`), then run
# the full test suite — including the differential harness in
# internal/difftest and the -race concurrency tests in internal/tx that
# guard the page-granular copy-on-write snapshot machinery.

GO ?= go

.PHONY: check build vet test race bench bench-json bench-scan lint fuzz server-smoke repl-smoke

check: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The paper's evaluation benchmarks (Figure 9, insert scaling, the
# page-COW transaction cost, the versioned-snapshot read path, ...).
# Narrow with BENCH=<regexp>.
BENCH ?= .
bench:
	$(GO) test -run xxx -bench '$(BENCH)' -benchmem .

# bench-json records the same run as go-test JSON events in BENCH_ci.json
# (the per-commit benchmark artifact CI uploads; each event's Output
# lines carry the benchstat-parsable result text).
bench-json:
	$(GO) test -run xxx -bench '$(BENCH)' -benchmem -json . > BENCH_ci.json
	@tail -n 3 BENCH_ci.json

# bench-scan appends one end-to-end run of the repository benchmark's
# scan workload (perfbench; metrics and bounds in BENCHMARK.json) to
# BENCH_ci.json as one JSON line, so the per-commit artifact carries the
# read operators' ops_per_s next to the library benchmarks. Run it after
# bench-json, which rewrites the file.
bench-scan:
	@out="$$(bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0)" && \
	echo "$$out" && echo "$$out" >> BENCH_ci.json

# Formatting + static analysis. staticcheck is optional locally (the CI
# lint job installs it); gofmt and vet always run.
lint:
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi

# server-smoke: end-to-end daemon check. Starts mxqd, drives it with
# mxqload (SMOKE_SESSIONS concurrent sessions, SMOKE_DURATION, XMark SF
# 0.01, 5% updates), requires zero request errors and zero overload
# rejections, then SIGTERMs the daemon and requires a clean drain. The
# load report (qps, p50_ms, p99_ms, ...) is appended as one JSON line to
# BENCH_ci.json so the CI artifact carries the served-path numbers next
# to the library benchmarks.
SMOKE_SESSIONS ?= 200
SMOKE_DURATION ?= 10s
SMOKE_ADDR ?= 127.0.0.1:4479
server-smoke:
	$(GO) build -o /tmp/mxqd-smoke ./cmd/mxqd
	$(GO) build -o /tmp/mxqload-smoke ./cmd/mxqload
	@set -e; \
	/tmp/mxqd-smoke -addr $(SMOKE_ADDR) -max-waiters 4096 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	sleep 1; \
	if /tmp/mxqload-smoke -addr $(SMOKE_ADDR) -sessions $(SMOKE_SESSIONS) \
		-duration $(SMOKE_DURATION) -sf 0.01 -name mxqd_smoke \
		> /tmp/mxqload-smoke.json; then ok=1; else ok=0; fi; \
	cat /tmp/mxqload-smoke.json; \
	cat /tmp/mxqload-smoke.json >> BENCH_ci.json; \
	kill -TERM $$pid; \
	wait $$pid; \
	trap - EXIT; \
	test $$ok -eq 1

# repl-smoke: end-to-end replication check. Starts a durable primary,
# loads it and drives it closed-loop, then starts a follower (mxqd
# -follow), and drives the pair open-loop with replica-routed
# read-your-writes reads (-rate, queries to the follower carrying the
# session's last commit LSN). Requires zero request errors, zero stale
# reads (every RYW read must be served within the wait budget, never
# silently stale) and full lag convergence after the run (-max-lag 0).
# Both load reports — closed-loop primary, open-loop with replica lag —
# are appended to BENCH_ci.json.
REPL_PRIMARY ?= 127.0.0.1:4489
REPL_FOLLOWER ?= 127.0.0.1:4490
repl-smoke:
	$(GO) build -o /tmp/mxqd-smoke ./cmd/mxqd
	$(GO) build -o /tmp/mxqload-smoke ./cmd/mxqload
	@set -e; \
	tmp=$$(mktemp -d); \
	/tmp/mxqd-smoke -addr $(REPL_PRIMARY) -dir $$tmp/primary -nosync -max-waiters 4096 & \
	ppid=$$!; fpid=; \
	trap 'kill $$ppid $$fpid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	sleep 1; \
	if /tmp/mxqload-smoke -addr $(REPL_PRIMARY) -sessions 50 -duration 5s -sf 0.005 \
		-name mxqd_repl_primary_closed > /tmp/mxqload-repl1.json; then ok1=1; else ok1=0; fi; \
	/tmp/mxqd-smoke -addr $(REPL_FOLLOWER) -dir $$tmp/follower -nosync -follow $(REPL_PRIMARY) \
		-max-waiters 4096 & \
	fpid=$$!; \
	sleep 1; \
	if /tmp/mxqload-smoke -addr $(REPL_PRIMARY) -replica $(REPL_FOLLOWER) -sf 0 \
		-sessions 50 -rate 2000 -duration 5s -max-lag 0 \
		-name mxqd_repl_ryw_open > /tmp/mxqload-repl2.json; then ok2=1; else ok2=0; fi; \
	cat /tmp/mxqload-repl1.json /tmp/mxqload-repl2.json; \
	cat /tmp/mxqload-repl1.json /tmp/mxqload-repl2.json >> BENCH_ci.json; \
	kill -TERM $$fpid; wait $$fpid; \
	kill -TERM $$ppid; wait $$ppid; \
	trap - EXIT; \
	rm -rf $$tmp; \
	test $$ok1 -eq 1 && test $$ok2 -eq 1

# Native fuzz smoke over the text-input surfaces (the XPath compiler and
# the XUpdate parser) plus the evaluation-side differential fuzzer
# (compiled sequence-at-a-time pipeline vs node-at-a-time interpreter vs
# the naive dense oracle). Go allows one -fuzz target per invocation;
# -fuzzminimizetime=1x keeps short runs fuzzing instead of minimizing.
# Raise FUZZTIME for a real session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzXPathParse -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/xpath
	$(GO) test -run xxx -fuzz FuzzXPathEval -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/xpath
	$(GO) test -run xxx -fuzz FuzzXUpdateParse -fuzztime $(FUZZTIME) -fuzzminimizetime=1x ./internal/xupdate
