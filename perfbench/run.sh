#!/usr/bin/env bash
# Builds the benchmark against the checkout it sits in and runs it with
# the given arguments. Run from the checkout root:
#   bash perfbench/run.sh --workload fleet-1024 --seed 1 --seconds 30 --trace 0
# The build, the Go caches and the toolchain's own config files
# (telemetry counters) stay under .bench_build/; nothing is fetched.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOCACHE="$out/gocache" \
	GOMODCACHE="$out/gopath/pkg/mod" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
