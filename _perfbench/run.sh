#!/usr/bin/env bash
# Builds the benchmark program from the checkout it is run in, then runs it.
#
#   bash _perfbench/run.sh --workload table2-sim --seed 1 --seconds 15 --trace 0
#   bash _perfbench/run.sh --selftest
#
# Run it from the repository root. Every build and run artefact (the Go
# build cache included) goes under $CARGO_TARGET_DIR, default .bench_build,
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go-cache" "$out/go-path" "$out/config"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOMODCACHE=$out/go-path/pkg/mod \
	XDG_CONFIG_HOME=$out/config GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --out "$out/perfbench-out" "$@"
