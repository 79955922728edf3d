#!/usr/bin/env bash
# bench_compare.sh — run and compare the sweep benchmark ladder.
#
# Usage:
#   scripts/bench_compare.sh                   run the ladder now, print the
#                                              raw output and a per-benchmark
#                                              summary (mean ns/op)
#   scripts/bench_compare.sh OLD.txt NEW.txt   compare two saved runs
#
# Typical old-vs-new flow around a solver change:
#
#   scripts/bench_compare.sh > /tmp/old.txt          # before
#   ...apply the change...
#   scripts/bench_compare.sh > /tmp/new.txt          # after
#   scripts/bench_compare.sh /tmp/old.txt /tmp/new.txt
#
# The comparison uses benchstat when it is installed; otherwise a
# self-contained awk fallback reports per-benchmark means and the
# old/new ratio. Nothing is downloaded either way.
#
#   scripts/bench_compare.sh --scale [FILE]    diff the per-size solver
#                                              counters between the last two
#                                              records of BENCH_scale.json
#                                              (delegates to cmd/stress
#                                              -compare; FILE overrides the
#                                              default record path)
#
#   scripts/bench_compare.sh --controller [FILE]
#                                              gate the latest record of
#                                              BENCH_controller.json: warm
#                                              re-solve speedup >= 3x over the
#                                              cold rebuild, no warm-iteration
#                                              regression (delegates to
#                                              cmd/controller -compare; FILE
#                                              overrides the record path)
#
#   scripts/bench_compare.sh --trace [SCENARIO]
#                                              run the full-volume trace
#                                              pipeline (default scenario
#                                              paper20-group-full, 16M
#                                              requests), append a record to
#                                              BENCH_trace.json and gate the
#                                              streamed peak-alloc reduction
#                                              at >= 5x over the materialized
#                                              path (delegates to cmd/workload
#                                              bench-trace)
#
# Environment:
#   BENCH_COUNT    repetitions per benchmark (default 3; raise for benchstat
#                  significance testing)
#   BENCH_PATTERN  benchmark regexp (default the sweep ladder:
#                  BenchmarkSweep(Warm|Cold)$)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--scale" ]; then
    shift
    exec go run ./cmd/stress -compare ${1:+-bench "$1"}
fi

if [ "${1:-}" = "--controller" ]; then
    shift
    exec go run ./cmd/controller -compare -bench "${1:-BENCH_controller.json}"
fi

if [ "${1:-}" = "--trace" ]; then
    shift
    exec go run ./cmd/workload bench-trace \
        -scenario "${1:-paper20-group-full}" -record BENCH_trace.json -gate 5
fi

count="${BENCH_COUNT:-3}"
pattern="${BENCH_PATTERN:-BenchmarkSweep(Warm|Cold)\$}"

summarize() {
    # Mean ns/op per benchmark from `go test -bench` output lines like
    # "BenchmarkSweepWarm-8   1   6190594546 ns/op".
    awk '
        $1 ~ /^Benchmark/ && $4 == "ns/op" {
            name = $1; sub(/-[0-9]+$/, "", name)
            sum[name] += $3; n[name]++
        }
        END {
            for (name in sum)
                printf "%-28s %14.0f ns/op  (mean of %d)\n", name, sum[name] / n[name], n[name]
        }
    ' "$@" | sort
}

if [ "$#" -eq 2 ]; then
    old="$1" new="$2"
    if command -v benchstat >/dev/null 2>&1; then
        exec benchstat "$old" "$new"
    fi
    echo "benchstat not installed; awk fallback (means only, no significance test)"
    echo "--- old: $old"
    summarize "$old"
    echo "--- new: $new"
    summarize "$new"
    echo "--- old/new speedup"
    awk '
        $1 ~ /^Benchmark/ && $4 == "ns/op" {
            name = $1; sub(/-[0-9]+$/, "", name)
            sum[FILENAME, name] += $3; n[FILENAME, name]++
            names[name] = 1
        }
        END {
            for (name in names) {
                o = sum[ARGV[1], name] / n[ARGV[1], name]
                w = sum[ARGV[2], name] / n[ARGV[2], name]
                if (o > 0 && w > 0)
                    printf "%-28s %6.2fx\n", name, o / w
            }
        }
    ' "$old" "$new" | sort
    exit 0
elif [ "$#" -ne 0 ]; then
    echo "usage: $0 [OLD.txt NEW.txt]" >&2
    exit 2
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
echo "# go test -bench '$pattern' -count $count (serial)" >&2
go test ./internal/experiments -run '^$' -bench "$pattern" -benchtime 1x -count "$count" | tee "$out" >&2
summarize "$out"
