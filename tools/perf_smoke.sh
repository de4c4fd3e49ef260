#!/usr/bin/env bash
# Perf-regression smoke, two legs:
#  1. re-measure the timing-wheel event-kernel throughput and fail if it
#     drops below 50% of the committed BENCH_engine.json baseline;
#  2. time a bulk tag-array invalidation at L1 size (128 KB, 8-way) and
#     at L2-slice size (3 MB, 16-way, 24x the lines) holding the same
#     ten lines, and fail if the L2 call costs more than 4x the L1 one.
#     It is relative to itself, so it needs no committed baseline.
#
# The 50% bar is deliberately loose — CI hosts vary and the measurement
# is a best-of-three over one second — but it still catches the class of
# regression that matters: an accidental O(n) scan in the hot schedule
# path, a debug assert left on, a closure that started heap-allocating.
# The baseline's `engine` section records the host it was measured on
# (host_cores, compiler, build type).
#
# Usage: perf_smoke.sh [path-to-bench_engine_microbench]
# Runs as the `perf_smoke` ctest (default preset only, not tier1).
set -euo pipefail

cd "$(dirname "$0")/.."

BIN="${1:-build/bench/bench_engine_microbench}"
BASELINE_JSON=BENCH_engine.json

if [ ! -x "$BIN" ]; then
    echo "perf_smoke: $BIN not built" >&2
    exit 1
fi

baseline=$(grep -o '"wheel_events_per_sec": *[0-9]*' "$BASELINE_JSON" |
    grep -o '[0-9]*$')
if [ -z "$baseline" ]; then
    echo "perf_smoke: no wheel_events_per_sec in $BASELINE_JSON" >&2
    exit 1
fi

# Hard budget: a hung microbench (the thing this PR's watchdogs exist
# to prevent inside the simulator) must not wedge the CI runner.
measured=$(timeout --kill-after=30 300 \
    "$BIN" --kernel-only --events 1000000 |
    awk '/^wheel_events_per_sec/ { print $2 }')
if [ -z "$measured" ]; then
    echo "perf_smoke: could not parse --kernel-only output" >&2
    exit 1
fi

floor=$((baseline / 2))
echo "perf_smoke: measured $measured ev/s, baseline $baseline ev/s," \
    "floor $floor ev/s"
if [ "${measured%.*}" -lt "$floor" ]; then
    echo "perf_smoke: FAIL — event kernel below 50% of committed baseline" >&2
    exit 1
fi

read -r l1_ns l2_ns < <(timeout --kill-after=30 300 \
    "$BIN" --invalidate-only |
    awk '/^bulk_invalidate_l1_ns/ { l1 = $2 }
         /^bulk_invalidate_l2_ns/ { l2 = $2 }
         END { print l1, l2 }')
if [ -z "$l1_ns" ] || [ -z "$l2_ns" ]; then
    echo "perf_smoke: could not parse --invalidate-only output" >&2
    exit 1
fi
echo "perf_smoke: bulk invalidation $l1_ns ns at L1 size," \
    "$l2_ns ns at L2 size"
if awk -v a="$l1_ns" -v b="$l2_ns" 'BEGIN { exit !(b > 4 * a) }'; then
    echo "perf_smoke: FAIL — bulk invalidation scales with capacity" >&2
    exit 1
fi
echo "perf_smoke: PASS"
