#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in
# and runs it with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload serve-tuned --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch stores
# all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out/work" "$@"
