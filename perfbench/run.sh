#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it. Run from the
# repository root; arguments pass through to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload fig13 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch stores and spans.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
    GOWORK=off GOTELEMETRY=off

# The build's output goes to stderr, so the result stays the last line of
# standard output.
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
