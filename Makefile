# Tier-1 verification for the DBToaster reproduction.
#
#   make check   — gofmt gate + build + vet + tests, incl. the frozen
#                  bench/ harness module (the ROADMAP.md tier-1 gate)
#   make race    — the same tests under the race detector; required for
#                  the concurrent commit lane, catch-up and replay
#                  (internal/server, internal/wal, internal/engine)
#   make bench   — the hot-path benchmark harness; writes
#                  BENCH_hotpath.json (ns/op, B/op, allocs/op) and
#                  BENCH_registry.json (dynamic-registration latency
#                  percentiles, compile time, catch-up volume)
#   make fuzz    — a short pass over every fuzz target

GO ?= go

.PHONY: all check race bench fuzz

all: check race

check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run xxx -bench '^(BenchmarkFinancial|BenchmarkWarehouse)/^dbtoaster$$' -benchtime 100x -benchmem .

race:
	$(GO) test -race ./...

bench:
	scripts/bench.sh
	SUITE=registry scripts/bench.sh

fuzz:
	$(GO) test -run xxx -fuzz FuzzShardedAgreement -fuzztime 10s ./internal/engine
