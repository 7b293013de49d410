# Tier-1 verification and developer shortcuts. `make verify` is the
# gate every PR must keep green (recorded in ROADMAP.md).

GO ?= go

.PHONY: verify build vet lint lint-audit lint-sarif test race bench bench-hotpath bench-uncertainty bench-load bench-obs bench-check bench-paper bench-serving clean

verify: build vet lint lint-audit race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (determinism, numerical safety, IO
# hygiene); see README "Static analysis" and internal/lint. Exit 1 on any
# finding, so verify fails when a new violation is introduced.
lint:
	$(GO) run ./cmd/repolint ./...

# Suppression audit: every //lint:allow must name a real analyzer and
# suppress at least one live finding. Stale directives fail verify so
# the allow count can only shrink as code is cleaned up.
lint-audit:
	$(GO) run ./cmd/repolint -audit

# Machine-readable findings for code-scanning upload (CI artifact).
lint-sarif:
	$(GO) run ./cmd/repolint -q -format sarif ./... > repolint.sarif || true

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# End-to-end benchmark baseline (forest fit, serve predict, pipeline
# retrain+promote, store ingest), committed as BENCH_pipeline.json via
# cmd/benchjson so regressions show up in review diffs. -benchtime=10x
# keeps single-digit-µs paths out of one-iteration noise while staying
# cheap enough for CI smoke. Also refreshes the uncertainty baseline so
# one `make bench` regenerates every committed BENCH_*.json but
# BENCH_hotpath.json (kernel perf changes are deliberate, see above).
bench: bench-uncertainty
	$(GO) test -run='^$$' -benchmem -benchtime=10x \
		-bench='^(BenchmarkFit500x6x50Trees|BenchmarkServePredict|BenchmarkPipelineRetrainPromote|BenchmarkStoreAppend)$$' \
		./internal/forest/ ./internal/serving/ ./internal/pipeline/ > bench.out
	$(GO) run ./cmd/benchjson -in bench.out -out BENCH_pipeline.json
	@rm -f bench.out

# Kernel-level baseline (single-tree fit, compiled batch inference for
# forests and gbrt), committed as BENCH_hotpath.json. Regenerate with
# the same command when a PR intentionally changes kernel performance.
bench-hotpath:
	$(GO) test -run='^$$' -benchmem -benchtime=3x \
		-bench='^(BenchmarkTreeFit|BenchmarkForestPredictBatchCompiled|BenchmarkGBRTPredictBatchCompiled)$$' \
		./internal/tree/ ./internal/treec/ > bench-hotpath.out
	$(GO) run ./cmd/benchjson -in bench-hotpath.out -out BENCH_hotpath.json
	@rm -f bench-hotpath.out

# Uncertainty baseline (conformal calibration + factor lookup, drift
# monitor push, interval serving through the handler), committed as
# BENCH_uncertainty.json. Regenerate when a PR intentionally changes
# interval or drift-path performance.
bench-uncertainty:
	$(GO) test -run='^$$' -benchmem -benchtime=10x \
		-bench='^(BenchmarkConformalCalibrate|BenchmarkConformalFactor|BenchmarkMonitorObserve|BenchmarkServePredictInterval)$$' \
		./internal/uncertainty/ ./internal/serving/ > bench-uncertainty.out
	$(GO) run ./cmd/benchjson -in bench-uncertainty.out -out BENCH_uncertainty.json
	@rm -f bench-uncertainty.out

# Load-management baseline (admission fast path, end-to-end saturated
# throughput through cmd/loadgen's closed-loop engine), committed as
# BENCH_loadctl.json. The Acquire/Release cycle must stay allocation-
# free; regenerate when a PR intentionally changes admission-path cost.
bench-load:
	$(GO) test -run='^$$' -benchmem -benchtime=10000x \
		-bench='^(BenchmarkAcquireRelease|BenchmarkAcquireReleaseParallel)$$' \
		./internal/loadctl/ > bench-load.out
	$(GO) test -run='^$$' -benchmem -benchtime=500x \
		-bench='^BenchmarkLoadSaturation$$' \
		./cmd/loadgen/ >> bench-load.out
	$(GO) run ./cmd/benchjson -in bench-load.out -out BENCH_loadctl.json
	@rm -f bench-load.out

# Observability baseline (cache-hit predict with tracing off vs. on),
# committed as BENCH_obs.json. The -overhead gate is the contract from
# DESIGN.md: request tracing may cost at most 5% of the untraced path
# (two monotonic clock reads and a ring slot per request). -benchtime
# is high because the gate compares two sub-10µs numbers. Regenerate
# when a PR intentionally changes the traced request path.
bench-obs:
	$(GO) test -run='^$$' -benchmem -benchtime=20000x \
		-bench='^BenchmarkObsServePredict$$' \
		./internal/serving/ > bench-obs.out
	$(GO) run ./cmd/benchjson -in bench-obs.out -out BENCH_obs.json \
		-overhead 'BenchmarkObsServePredict/untraced=BenchmarkObsServePredict/traced:1.05'
	@rm -f bench-obs.out

# CI smoke: re-run both benchmark suites and fail on a >2x ns/op or
# allocs/op regression against the committed baselines. The generous
# tolerance absorbs shared-runner noise while still catching real
# regressions (the presort rewrite was a 3x+ move). Never rewrites the
# committed BENCH_*.json files.
bench-check:
	$(GO) test -run='^$$' -benchmem -benchtime=10x \
		-bench='^(BenchmarkFit500x6x50Trees|BenchmarkServePredict|BenchmarkPipelineRetrainPromote|BenchmarkStoreAppend)$$' \
		./internal/forest/ ./internal/serving/ ./internal/pipeline/ > bench.out
	$(GO) run ./cmd/benchjson -in bench.out -compare BENCH_pipeline.json -tolerance 2.0
	$(GO) test -run='^$$' -benchmem -benchtime=3x \
		-bench='^(BenchmarkTreeFit|BenchmarkForestPredictBatchCompiled|BenchmarkGBRTPredictBatchCompiled)$$' \
		./internal/tree/ ./internal/treec/ > bench-hotpath.out
	$(GO) run ./cmd/benchjson -in bench-hotpath.out -compare BENCH_hotpath.json -tolerance 2.0
	$(GO) test -run='^$$' -benchmem -benchtime=10x \
		-bench='^(BenchmarkConformalCalibrate|BenchmarkConformalFactor|BenchmarkMonitorObserve|BenchmarkServePredictInterval)$$' \
		./internal/uncertainty/ ./internal/serving/ > bench-uncertainty.out
	$(GO) run ./cmd/benchjson -in bench-uncertainty.out -compare BENCH_uncertainty.json -tolerance 2.0
	$(GO) test -run='^$$' -benchmem -benchtime=10000x \
		-bench='^(BenchmarkAcquireRelease|BenchmarkAcquireReleaseParallel)$$' \
		./internal/loadctl/ > bench-load.out
	$(GO) run ./cmd/benchjson -in bench-load.out -compare BENCH_loadctl.json -tolerance 2.0
	$(GO) test -run='^$$' -benchmem -benchtime=20000x \
		-bench='^BenchmarkObsServePredict$$' \
		./internal/serving/ > bench-obs.out
	$(GO) run ./cmd/benchjson -in bench-obs.out -compare BENCH_obs.json -tolerance 2.0 \
		-overhead 'BenchmarkObsServePredict/untraced=BenchmarkObsServePredict/traced:1.05'
	@rm -f bench.out bench-hotpath.out bench-uncertainty.out bench-load.out bench-obs.out

# Reduced-size reconstruction of every table/figure plus the core
# micro-benchmarks; see bench_test.go.
bench-paper:
	$(GO) test -bench=. -benchtime=1x .

# Serving-path latency (cache hit vs. miss), tracked across PRs.
bench-serving:
	$(GO) test -bench=BenchmarkServePredict -run=NONE ./internal/serving/

clean:
	$(GO) clean ./...
