#!/usr/bin/env bash
# Builds the stock dbtserver and the benchmark harness from this checkout,
# then runs the harness. Everything it writes stays inside the checkout:
# build cache, binaries and WAL directories under .bench_build/, run records
# and trace artefacts under bench/out/.
#
#   bash bench/run.sh --workload fin_b1 --seed 1 --seconds 6 --trace 0
#   bash bench/run.sh --suite bench/out/a.json [--runs 10]   every workload, repeated
#   bash bench/run.sh --aa [--runs 10]                       the suite twice, compared
#   bash bench/run.sh --compare a.json b.json
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/dbtserver ]; then
	echo "bench/run.sh: no dbtserver source beside bench/; run from a full checkout" >&2
	exit 2
fi

build=$PWD/.bench_build
mkdir -p "$build/bin" "$build/tmp" bench/out
export GOCACHE=$build/gocache GOPATH=$build/gopath GOPROXY=off GOTOOLCHAIN=local GOMAXPROCS=2
export TMPDIR=$build/tmp
t0=$(date +%s%N)
go build -o "$build/bin/dbtserver" ./cmd/dbtserver
(cd bench && go build -o "$build/bin/dbtbench" .)
echo "bench/run.sh: built dbtserver and dbtbench in $((($(date +%s%N) - t0) / 1000000)) ms" >&2

bench=("$build/bin/dbtbench" "--server-bin=$build/bin/dbtserver" "--out=bench/out" "--tmp=$build/tmp")
case "${1:-}" in
--aa)
	shift
	"${bench[@]}" --suite bench/out/aa-1.json "$@"
	"${bench[@]}" --suite bench/out/aa-2.json "$@"
	exec "${bench[@]}" --compare bench/out/aa-1.json bench/out/aa-2.json
	;;
*)
	exec "${bench[@]}" "$@"
	;;
esac
