#!/bin/sh
# Tier-1 verification: build, vet, tests, then the focused smoke stages
# below and finally every test under the race detector. The commit lane,
# registration catch-up and WAL replay run concurrently with ingest, so the
# race stages fail loudly on a data race rather than letting it flake.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt ==" && unformatted=$(gofmt -l .) && if [ -n "$unformatted" ]; then
    echo "gofmt -l reports:" && echo "$unformatted" && exit 1
fi
echo "== build ==" && go build ./...
echo "== vet ==" && go vet ./...
echo "== test ==" && go test ./...
# bench/ is its own module and BENCHMARK.json forbids editing it: a
# signature change in a package the harness calls (server.ParseValue,
# server.Client, wal.AppendEvent, Registry.OnEventBatch, ...) must fail
# here, not in the benchmark run.
echo "== bench harness (vet + test) ==" && (cd bench && go vet ./... && go test ./...)
echo "== bench smoke ==" && go test -run xxx -bench '^(BenchmarkFinancial|BenchmarkWarehouse)/^dbtoaster$' -benchtime 100x -benchmem .

# Metrics-overhead smoke: fails if enabling instrumentation regresses the
# hot path beyond its budget or allocates per event (see the script for
# the measurement methodology).
echo "== metrics overhead smoke ==" && sh scripts/metrics_smoke.sh

# Crash recovery: the in-process fault-injection matrix (every WAL/
# checkpoint crash point, every torn-write split, packed and generic layouts),
# then a real kill -9 against a live dbtserver with state compared across
# the restart.
echo "== crash recovery ==" && go test ./internal/wal/ -run 'TestCrashRecoveryFaultMatrix|TestDoubleCrashRecovery' -count=1
bash scripts/crash_smoke.sh

# Commit lane smoke: leader commit runs on producers' goroutines, so its
# contract — exactly-once acks, WAL order = apply order across REGISTER/
# UNREGISTER/CHECKPOINT, no goroutine left after Close, a panic that does
# not wedge the lane, shedding behind a busy leader — and the chaos/overload
# matrix run under the race detector at one, two and four processors: one
# processor is where a leader that never parks can starve everyone else.
for procs in 1 2 4; do
    echo "== commit lane smoke (GOMAXPROCS=$procs) ==" && GOMAXPROCS=$procs go test -race -count=1 \
        -run 'TestConcurrentBatchesGroupCommitAndRecover|TestCommitLane|TestServerChaosMatrix|TestServerOverloadShedding|TestServerGracefulShutdownUnderLoad' \
        ./internal/server/
done

# Registry smoke: the dynamic-query lifecycle gates — hot-swap
# registration against a live producer (differential vs boot-time
# compilation), map-sharing refcounts, crash-point recovery of the
# registered set — plus a short pass of the lifecycle benchmark.
echo "== registry smoke ==" && GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestRegisterCatchUpDifferential|TestMapSharingRefcounts|TestRegistrationCrashRecovery' ./internal/server/
BENCHTIME=10x SUITE=registry OUT="${TMPDIR:-/tmp}/BENCH_registry_smoke.json" sh scripts/bench.sh >/dev/null

# Replay smoke: replay is live ingest fed from disk, and a catch-up reads
# the log while the commit lane appends to it — so the differential property
# test (batched streaming replay vs the record-at-a-time loop, with a
# writer appending during the passes), the cursor
# and read-volume gates, and the crash-recovery fault matrix run under the
# race detector at real parallelism.
echo "== replay smoke (GOMAXPROCS=4) ==" && GOMAXPROCS=4 go test -race -count=1 \
    -run 'TestReplayDifferential|TestReplayBatchesLifecycleOrder|TestCursorResumes|TestCrashRecoveryFaultMatrix|TestDoubleCrashRecovery' ./internal/wal/
GOMAXPROCS=4 go test -race -count=1 -run 'TestRegisterReadsLogOnce' ./internal/server/

# Codegen parity: generate each query's Go, `go build` it, run it over the
# event stream, and require its state dumps to be bitwise-identical
# snapshots of the closure engine's state (a fixed qgen seed set, the
# bakeoff queries, float edges, mixed key arities), plus the driver's
# golden, parse and build checks.
echo "== codegen parity ==" && go test ./internal/engine/ -run 'TestNative' -count=1
go test ./internal/codegen/ -run 'TestGeneratedDriver|TestGoldenGeneratedDriver|TestProgramSpec' -count=1

# Import graph: the generated code is a test-only oracle, so no command may
# link the plugin package (importing it keeps every exported method alive
# in the binary). Sorted maps keep their order in the map's own ordered
# index, so the runtime and the engine may not reach the treap (which only
# the order book's hand-written VWAP processor uses).
echo "== import graph ==" && if go list -deps ./cmd/... | grep -x plugin; then
    echo "a command imports the plugin package" && exit 1
fi
if go list -deps ./internal/runtime ./internal/engine | grep -x dbtoaster/internal/treap; then
    echo "the runtime or the engine imports the treap package" && exit 1
fi

# Static build: net is the one package dbtserver links that uses cgo, and
# the pure-Go resolver stands in for it, so the server must build and link
# with cgo off — and no other dependency may start needing it.
echo "== static build (CGO_ENABLED=0) ==" && CGO_ENABLED=0 go build -o /dev/null ./cmd/dbtserver
cgo_users=$(go list -deps -f '{{if .CgoFiles}}{{.ImportPath}}{{end}}' ./cmd/dbtserver | grep -vx 'net\|runtime/cgo' || true)
if [ -n "$cgo_users" ]; then
    echo "dbtserver links cgo packages besides net: $cgo_users" && exit 1
fi

# Qgen differential + fuzz smoke: seeded random queries over the widened
# SQL surface (AVG, EXISTS/IN, LEFT OUTER JOIN) must agree bitwise with
# the re-evaluating oracle,
# then a short coverage-guided pass over the seed space.
echo "== qgen differential smoke ==" && go test ./internal/qgen/ -run 'TestQgenDifferential|TestQgenAlwaysCompiles' -short -count=1
echo "== qgen fuzz smoke ==" && go test ./internal/qgen/ -run xxx -fuzz FuzzQueryAgreement -fuzztime 10s
# Map store model: random add / delete-to-zero / slot reuse / late index
# registration on every layout, checked against a plain Go map through
# every access path.
echo "== map store fuzz smoke ==" && go test ./internal/runtime/ -run xxx -fuzz FuzzMapIndexModel -fuzztime 10s

# Failure isolation: the engine-level quarantine tests (the server's chaos
# matrix and overload guards run in the commit lane smoke), then the
# end-to-end smoke driving a stock dbtserver binary through quarantine,
# kill -9 recovery and revive. A short fuzz pass keeps the command loop
# honest against arbitrary input.
echo "== chaos / overload smoke ==" && GOMAXPROCS=4 go test -race -count=1 -run 'TestQuarantine' ./internal/engine/
bash scripts/chaos_smoke.sh
echo "== server fuzz smoke ==" && go test ./internal/server/ -run xxx -fuzz FuzzServerCommand -fuzztime 10s
go test ./internal/server/ -run xxx -fuzz FuzzDeltaCodec -fuzztime 10s
go test ./internal/wal/ -run xxx -fuzz FuzzDecodeEventInto -fuzztime 10s

echo "== race ==" && go test -race ./...
echo "tier-1 OK"
