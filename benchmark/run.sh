#!/usr/bin/env bash
# Builds the benchmark command from the sources in this checkout and runs
# it with the given arguments. Run it from the root of the checkout:
#
#   bash benchmark/run.sh --workload isp-warmup --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go caches, its temporary files and its user
# configuration (telemetry counters) all stay in .bench_build at the root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
# The revision stamp needs the git metadata; outside a work tree, or when
# git refuses it, build without.
go -C benchmark build -o "$out/ibgpbench" . 2>/dev/null ||
	go -C benchmark build -buildvcs=false -o "$out/ibgpbench" .
exec "$out/ibgpbench" "$@"
