# Developer entry points. `make check` is what CI runs.

GO ?= go

.PHONY: build test race vet lint vet-json allow-prune bench bench-smoke check trace-demo par-demo stat-demo series-demo causal-demo perfdiff baselines profiles snapshot-demo crash-sim

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# First-class tier-1 target: the whole module under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# mmt-vet: the project's own ten-analyzer suite (simclock,
# cryptocompare, checkverify, nopanic, maporder, parclock, eventkind,
# noalloc, lockorder, tracectx) plus the //mmt:allow suppression audit.
# Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/mmt-vet ./...

# vet-json: same run, but also writes the machine-readable mmt-vet/v1
# findings document (CI uploads it as an artifact).
vet-json:
	$(GO) run ./cmd/mmt-vet -json -out mmt-vet.json ./...

# allow-prune: list stale //mmt:allow comments ready for removal.
allow-prune:
	$(GO) run ./cmd/mmt-vet -fix allow-prune ./...

# bench: measured run of the hot-path kernels (crypt scratch kernels,
# engine read/write path, cache) plus the public API. The scratch-path
# benchmarks must report 0 allocs/op.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/crypt ./internal/engine .

# bench-smoke: one iteration of every benchmark in the module — cheap CI
# proof that no benchmark has bit-rotted.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ ./...

# trace-demo: run the quickstart with tracing, emit the fig10 metrics
# sidecar, and validate both artifacts against their schemas.
trace-demo:
	$(GO) run ./examples/quickstart -trace trace.json
	$(GO) run ./cmd/mmt-bench -fig 10 -out .
	$(GO) run ./cmd/mmt-tracecheck trace.json BENCH_fig10.json

# par-demo: the parallel runner's determinism contract, end to end — the
# fig11 sidecar must be byte-identical at any worker count, and the
# wallclock sidecar must validate against its schema.
par-demo:
	mkdir -p .bench/serial .bench/par
	$(GO) run ./cmd/mmt-bench -fig 11 -accesses 20000 -out .bench/serial
	$(GO) run ./cmd/mmt-bench -fig 11 -accesses 20000 -parallel 8 -out .bench/par
	cmp .bench/serial/BENCH_fig11.json .bench/par/BENCH_fig11.json
	$(GO) run ./cmd/mmt-bench -wallclock -parallel 8 -accesses 20000 -out .bench
	$(GO) run ./cmd/mmt-tracecheck .bench/serial/BENCH_fig11.json .bench/BENCH_wallclock.json

# stat-demo: the observability pipeline end to end — export the latency
# histograms and security-event ledger from a quickstart run, validate
# both against their schemas, render them with mmt-stat, and render the
# fig11 sidecar's embedded histogram summaries (which include the
# read-latency-under-migration quantiles).
stat-demo:
	mkdir -p .bench
	$(GO) run ./examples/quickstart -stats .bench/hist.json -events .bench/events.jsonl
	$(GO) run ./cmd/mmt-tracecheck .bench/hist.json .bench/events.jsonl
	$(GO) run ./cmd/mmt-stat .bench/hist.json .bench/events.jsonl
	$(GO) run ./cmd/mmt-bench -fig 11 -accesses 2000 -out .bench
	$(GO) run ./cmd/mmt-stat .bench/BENCH_fig11.json

# series-demo: the time-series pipeline end to end — run the fig11 sweep
# with windowed sampling on, validate both the sidecar (with its series
# summary section) and the mmt-series/v1 artifact — including the exact
# evicted+deltas==totals sum — with mmt-tracecheck, then render the
# per-machine sparklines with mmt-stat.
series-demo:
	mkdir -p .bench
	$(GO) run ./cmd/mmt-bench -fig 11 -accesses 2000 -series -out .bench
	$(GO) run ./cmd/mmt-tracecheck .bench/BENCH_fig11.json .bench/BENCH_fig11.series.json
	$(GO) run ./cmd/mmt-stat .bench/BENCH_fig11.series.json

# causal-demo: the causal-tracing pipeline end to end — export the
# causal span trees (mmt-causal/v1) from a quickstart run, validate the
# causal invariants with mmt-tracecheck, render the trees with mmt-stat,
# and cross-check the fig11 sidecar's per-migration causal accounting
# (every migration one rooted tree, cycle totals re-adding to the run's
# migration totals).
causal-demo:
	mkdir -p .bench
	$(GO) run ./examples/quickstart -causal .bench/causal.json
	$(GO) run ./cmd/mmt-bench -fig 11 -accesses 2000 -out .bench
	$(GO) run ./cmd/mmt-tracecheck .bench/causal.json .bench/BENCH_fig11.json
	$(GO) run ./cmd/mmt-stat .bench/causal.json

# perfdiff: regenerate the benchmark sidecars and gate them against the
# committed baselines. The fig10/fig11 sidecars are cycle-domain and the
# simulator is deterministic, so their gate is hard: any byte that
# differs from testdata/baselines fails the build (cmp). The per-metric
# perfdiff reports are written first, so a failure ships with the diff
# that explains it. The wallclock sidecar measures the host, so it keeps
# the soft gate: -warn reports regressions past 25% without failing. A
# schema or shape mismatch is always fatal (exit 2), because that means
# the artifact format drifted, not the numbers.
perfdiff:
	mkdir -p .bench/current
	$(GO) run ./cmd/mmt-bench -fig 10,11 -accesses 2000 -out .bench/current
	$(GO) run ./cmd/mmt-bench -wallclock -parallel 8 -accesses 20000 -out .bench/current
	$(GO) run ./cmd/mmt-perfdiff -warn -out .bench/perfdiff_fig10.json testdata/baselines/BENCH_fig10.json .bench/current/BENCH_fig10.json
	$(GO) run ./cmd/mmt-perfdiff -warn -out .bench/perfdiff_fig11.json testdata/baselines/BENCH_fig11.json .bench/current/BENCH_fig11.json
	$(GO) run ./cmd/mmt-perfdiff -warn -threshold 0.25 -out .bench/perfdiff_wallclock.json testdata/baselines/BENCH_wallclock.json .bench/current/BENCH_wallclock.json
	cmp testdata/baselines/BENCH_fig10.json .bench/current/BENCH_fig10.json
	cmp testdata/baselines/BENCH_fig11.json .bench/current/BENCH_fig11.json

# baselines: regenerate every committed benchmark baseline in one step.
# The figure sidecars are cycle-domain and deterministic — on an unchanged
# tree the refresh is byte-identical — while the wallclock sidecar records
# the generating machine's host speed and is expected to drift. Every file
# is promoted through mmt-perfdiff -update, which runs it through the same
# extractor that later diffs it, so a malformed sidecar can never become
# the committed baseline.
baselines:
	mkdir -p .bench/current
	$(GO) run ./cmd/mmt-bench -fig 10,11 -accesses 2000 -out .bench/current
	$(GO) run ./cmd/mmt-bench -wallclock -parallel 8 -accesses 20000 -out .bench/current
	$(GO) run ./cmd/mmt-perfdiff -update testdata/baselines .bench/current/BENCH_fig10.json .bench/current/BENCH_fig11.json .bench/current/BENCH_wallclock.json

# profiles: capture CPU and heap pprof profiles of the fig11 sweep — the
# same workload the perfdiff gate regenerates. CI runs this once at the
# PR head and once at the merge base and uploads both, so any wallclock
# movement perfdiff flags ships with the before/after profiles needed to
# explain it (`go tool pprof -diff_base before/cpu.pprof after/cpu.pprof`).
profiles:
	mkdir -p .bench/prof
	$(GO) run ./cmd/mmt-bench -fig 11 -accesses 20000 -parallel 8 -cpuprofile cpu.pprof -memprofile mem.pprof -out .bench/prof

# snapshot-demo: the persistence lifecycle end to end — run the scenario
# with a store attached (checkpointing as it goes), resume the same
# cluster from disk in a second process, and validate the exported
# manifest against its schema.
snapshot-demo:
	rm -rf .bench/snapstore
	$(GO) run ./examples/snapshot -store .bench/snapstore -manifest .bench/manifest.json
	$(GO) run ./examples/snapshot -store .bench/snapstore -manifest .bench/manifest.json
	$(GO) run ./cmd/mmt-tracecheck .bench/manifest.json

# crash-sim: the crash simulator — every kill point of a checkpoint
# sequence under every disk-replay model must recover to a committed,
# hash-verified snapshot — plus the cross-process migration test.
crash-sim:
	$(GO) test -run 'TestCheckpointCrashConsistency|TestCrossProcessMigration|TestCrash' -v . ./internal/store

check: build vet lint test race
