#!/usr/bin/env bash
# Builds the WA-RAN benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload slot-capacity --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary and Go build cache) stay under .bench_build in the
# checkout. The benchmark is a module of its own that replaces the `waran`
# module with the checkout root, so the build fails, and nothing is printed
# on stdout, when the parent sources are absent.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Everything the go command writes (build cache, module cache, telemetry
# counters under the user config dir) goes under .bench_build.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/waran-perfbench" .) 1>&2
exec "$out/waran-perfbench" "$@"
