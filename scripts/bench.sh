#!/bin/sh
# Hot-path benchmark harness: runs the financial and warehouse benchmark
# suites (compiled engine) and the map-store micro-benchmark with
# allocation reporting and persists the numbers to BENCH_hotpath.json —
# the input for EXPERIMENTS.md's before/after allocation table.
#
#   scripts/bench.sh                     # default 20000x iterations
#   BENCHTIME=100x scripts/bench.sh      # quick smoke (used by check)
#   ENGINE='.' scripts/bench.sh          # include the baselines too
#   SUITE=metrics scripts/bench.sh       # instrumentation overhead
#                                        # (BenchmarkMetricsOverhead →
#                                        # BENCH_metrics.json; live
#                                        # steady-state snapshots come from
#                                        # `bakeoff -metrics-out` or the
#                                        # dbtserver METRICS command)
#   SUITE=registry scripts/bench.sh      # dynamic query lifecycle: hot
#                                        # register/unregister against a
#                                        # retained WAL history
#                                        # (BenchmarkRegistryRegister →
#                                        # BENCH_registry.json with
#                                        # register-latency p50/p99, mean
#                                        # compile time, catch-up volume;
#                                        # plus BenchmarkReplay: the log
#                                        # replayed record by record, in
#                                        # batches, and from a checkpoint,
#                                        # ns and allocs per event; plus
#                                        # BenchmarkRegistryFanOut: BATCH
#                                        # 256 over fanout16_rw's sixteen
#                                        # queries, dispatched by ordinal
#                                        # or by name, ns per event)
#   SUITE=overload scripts/bench.sh      # admission control under 1x/2x/4x
#                                        # producer load against a bounded
#                                        # commit backlog
#                                        # (BenchmarkOverloadShedding →
#                                        # BENCH_overload.json with p99 ack
#                                        # latency and shed fraction per
#                                        # load point)
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-20000x}"
ENGINE="${ENGINE:-^dbtoaster$}"
SUITE="${SUITE:-hotpath}"
PKG="."
case "$SUITE" in
hotpath)
    # Engine benchmarks select the compiled engine at the second level;
    # BenchmarkMapAdd (the map store alone: arity x slice indexes x
    # update/insert/churn, in internal/runtime) has layouts there.
    PATTERN="^(BenchmarkFinancial|BenchmarkWarehouse|BenchmarkPaperQueryRST|BenchmarkMapAdd)/($ENGINE|^int[1-4]\$)"
    OUT="${OUT:-BENCH_hotpath.json}"
    PKG=". ./internal/runtime"
    ;;
metrics)
    PATTERN='^BenchmarkMetricsOverhead/'
    OUT="${OUT:-BENCH_metrics.json}"
    ;;
registry)
    PATTERN='^(BenchmarkRegistryRegister|BenchmarkReplay|BenchmarkRegistryFanOut)$'
    OUT="${OUT:-BENCH_registry.json}"
    PKG="./internal/server ./internal/wal ./internal/engine"
    # Each iteration is one full register (compile + WAL catch-up + swap)
    # plus unregister; the hot-path default of 20000 iterations would
    # replay the retained history 20000 times. BENCHTIME still overrides.
    if [ "$BENCHTIME" = 20000x ]; then BENCHTIME=50x; fi
    ;;
overload)
    PATTERN='^BenchmarkOverloadShedding/'
    OUT="${OUT:-BENCH_overload.json}"
    PKG="./internal/server"
    # Each iteration is a full client round-trip batch against a loaded
    # server; 20000 per load point is minutes of wall clock for no extra
    # signal. BENCHTIME still overrides.
    if [ "$BENCHTIME" = 20000x ]; then BENCHTIME=2000x; fi
    ;;
*)
    echo "unknown SUITE '$SUITE' (hotpath|metrics|registry|overload)" >&2
    exit 2
    ;;
esac

# shellcheck disable=SC2086 # PKG is intentionally word-split
raw=$(go test -run xxx -bench "$PATTERN" -benchtime "$BENCHTIME" -benchmem $PKG)
printf '%s\n' "$raw"

if [ "$SUITE" = registry ]; then
    # The benchmark reports custom units (register-latency percentiles,
    # mean compile ns, catch-up record count) via b.ReportMetric; parse
    # every "value unit" pair on the result line into a JSON field.
    # The replay benchmark's rows (BenchmarkReplay/<reader>) follow as the
    # "replay" array, the fan-out benchmark's (BenchmarkRegistryFanOut/
    # <contender>) as the "fanout" array.
    printf '%s\n' "$raw" | awk -v benchtime="$BENCHTIME" '
function fields(from,    i, unit, out) {
    out = ""
    for (i = from; i <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        out = out sprintf("%s\"%s\": %s", (out == "" ? "" : ", "), unit, $i)
    }
    return out
}
/^BenchmarkRegistryRegister/ && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    register = sprintf("  \"name\": \"%s\",\n  %s", name, fields(3))
}
/^BenchmarkReplay\// && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^BenchmarkReplay\//, "", name)
    replay = replay sprintf("%s\n    {\"reader\": \"%s\", %s}", (replay == "" ? "" : ","), name, fields(3))
}
/^BenchmarkRegistryFanOut\// && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^BenchmarkRegistryFanOut\//, "", name)
    fanout = fanout sprintf("%s\n    {\"contender\": \"%s\", %s}", (fanout == "" ? "" : ","), name, fields(3))
}
END {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print register ","
    print "  \"replay\": [" replay "\n  ],"
    print "  \"fanout\": [" fanout "\n  ]"
    print "}"
}' > "$OUT"
    if ! grep -q p99_ns "$OUT" || ! grep -q '"reader": "batched"' "$OUT" || ! grep -q '"contender": "admitted"' "$OUT"; then
        echo "BENCH_registry.json is missing register-latency percentiles, the replay rows or the fan-out rows" >&2
        exit 1
    fi
    echo "wrote $OUT"
    exit 0
fi

if [ "$SUITE" = overload ]; then
    # One result line per load point (load1x/load2x/load4x); parse every
    # "value unit" custom-metric pair (p99_ack_ns, shed_frac) per line.
    printf '%s\n' "$raw" | awk -v benchtime="$BENCHTIME" '
BEGIN {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print "  \"load_points\": ["
    first = 1
}
/^BenchmarkOverloadShedding\// && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^BenchmarkOverloadShedding\//, "", name)
    if (!first) printf ",\n"
    first = 0
    printf "    {\"load\": \"%s\"", name
    for (i = 3; i <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END {
    print ""
    print "  ]"
    print "}"
}' > "$OUT"
    if ! grep -q p99_ack_ns "$OUT"; then
        echo "BENCH_overload.json is missing p99 ack latencies" >&2
        exit 1
    fi
    echo "wrote $OUT"
    exit 0
fi

printf '%s\n' "$raw" | awk -v benchtime="$BENCHTIME" '
BEGIN {
    print "{"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    print "  \"benchmarks\": ["
    first = 1
}
/^Benchmark/ && / ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bop = "null"; aop = "null"
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "B/op") bop = $(i-1)
        if ($i == "allocs/op") aop = $(i-1)
    }
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bop, aop
}
END {
    print ""
    print "  ]"
    print "}"
}' > "$OUT"
echo "wrote $OUT"
