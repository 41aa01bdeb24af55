#!/usr/bin/env sh
# check.sh — the full verification pipeline, used locally (`make check`)
# and by CI. Fails fast on the first broken gate.
#
# FUZZTIME (default 10s) bounds each fuzz smoke run; set FUZZTIME=0 to
# skip the fuzz stage entirely (e.g. on very slow machines).
set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> airvet ./... (against lint_baseline.json)"
go run ./cmd/airvet -baseline lint_baseline.json ./...

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> go test -race (concurrent packages: the Makefile's race target)"
make -s race

echo "==> chaos smoke (determinism gate against BENCH_chaos.json)"
go run ./cmd/airbench -chaos -chaosout BENCH_chaos_new.json -chaosbaseline BENCH_chaos.json

echo "==> netcast smoke (fan-out gate against BENCH_netcast.json)"
go run ./cmd/airbench -netcast -netcastout BENCH_netcast_new.json -netcastbaseline BENCH_netcast.json

echo "==> loadgen smoke (zero-fault scenarios self-verify against sim.MeasureStream)"
go run ./cmd/loadgen -clients 1000 -dists uniform,sskew -out ""

echo "==> optscale smoke (PTAS scaling gate against BENCH_optscale.json)"
go run ./cmd/airbench -optscale -optscaleout BENCH_optscale_new.json -optscalebaseline BENCH_optscale.json

echo "==> replan smoke (incremental >=10x gate against BENCH_replan.json)"
go run ./cmd/airbench -replan -replanout BENCH_replan_new.json -replanbaseline BENCH_replan.json

echo "==> hybrid smoke (online tier bit-identity + oracles against BENCH_hybrid.json)"
go run ./cmd/airbench -hybrid -hybridout BENCH_hybrid_new.json -hybridbaseline BENCH_hybrid.json

if [ "$FUZZTIME" = "0" ]; then
    echo "==> fuzz smoke skipped (FUZZTIME=0)"
else
    echo "==> fuzz smoke (${FUZZTIME} per target: the Makefile's fuzz target)"
    make -s fuzz FUZZTIME="$FUZZTIME"
fi

echo "==> all checks passed"
