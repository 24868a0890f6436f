#!/usr/bin/env bash
# scripts/bench.sh — capture one point of the BENCH trajectory.
#
# Runs the Go benchmarks with -benchmem and writes both the raw `go test`
# output (results/bench_<idx>.txt, benchstat-compatible) and a parsed JSON
# summary (BENCH_<idx>.json) with the host (cpu, goos/goarch, GOMAXPROCS),
# mean ns/op, B/op, allocs/op and the headline figure metrics each benchmark
# reports. Compare points only when their hosts match.
#
# Usage:
#   scripts/bench.sh                 # next index, full suite, count=5
#   scripts/bench.sh 2               # explicit index
#   scripts/bench.sh 2 'Fig13|SingleRun|ScheduleFire' 5
#
# Compare two trajectory points (or use benchstat on the raw files):
#   go run ./scripts/benchjson -compare BENCH_1.json BENCH_2.json
set -euo pipefail
cd "$(dirname "$0")/.."

IDX="${1:-}"
BENCH="${2:-.}"
COUNT="${3:-5}"

if [[ -z "$IDX" ]]; then
    IDX=1
    while [[ -e "BENCH_${IDX}.json" ]]; do IDX=$((IDX + 1)); done
fi

RAW="results/bench_${IDX}.txt"
mkdir -p results

echo "bench.sh: index ${IDX}, bench regex '${BENCH}', count ${COUNT}" >&2
if ! go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" -timeout 0 \
    . ./internal/event/ | tee "$RAW"; then
    echo "bench.sh: FAILED: go test -bench exited nonzero (see ${RAW})" >&2
    grep -n '^panic: \|^fatal error: ' "$RAW" >&2 || true
    exit 1
fi

# A panic in a benchmark goroutine can surface after valid-looking summary
# lines; never summarize a run that panicked anywhere.
if grep -q '^panic: \|^fatal error: ' "$RAW"; then
    echo "bench.sh: FAILED: a benchmark exited via panic (see ${RAW})" >&2
    exit 1
fi

go run ./scripts/benchjson -raw "$RAW" -out "BENCH_${IDX}.json"
echo "bench.sh: wrote ${RAW} and BENCH_${IDX}.json" >&2
