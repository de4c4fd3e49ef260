#!/usr/bin/env bash
# The CI wall: lint + tier-1 tests under the default, ASan and UBSan
# presets (tier-1 runs every hmgcheck leg: the static families at the
# default, DGX and scale-out shapes, exhaustive exploration per protocol
# and every seeded bug), the static report as a SARIF artifact, the
# host-speed benchmark's self-test, a sanitizer pass over the
# fault-injection label and TSan over the threaded code.
#
# Everything here is hermetic — no network, no installed extras beyond
# cmake/g++ (clang-tidy is picked up when present, skipped when not).
#
# Every stage runs under a hard timeout(1) budget: a stage that hangs —
# a wedged simulation, a deadlocked sanitizer build, a runaway model
# check — kills itself with exit 124 and a named culprit instead of
# eating the CI runner until an operator notices (DESIGN.md §11 applies
# the same philosophy inside the simulator).
set -euo pipefail

cd "$(dirname "$0")/.."

# budget <seconds> <stage name> <command...>
budget() {
    local secs=$1 name=$2
    shift 2
    local rc=0
    timeout --kill-after=30 "$secs" "$@" || rc=$?
    if [ "$rc" -ne 0 ]; then
        if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
            echo "ci: stage '$name' exceeded its ${secs}s budget" >&2
        else
            echo "ci: stage '$name' failed (exit $rc)" >&2
        fi
        exit 1
    fi
}

# require_version <tool> <minimum> <actual>: an installed analyzer
# older than the pin is a hard failure — silently linting with a stale
# rule set is how findings rot — while an absent one is still a loud
# skip (the reference container ships neither).
require_version() {
    local tool=$1 min=$2 actual=$3
    if [ "$(printf '%s\n%s\n' "$min" "$actual" | sort -V | head -1)" \
         != "$min" ]; then
        echo "ci: $tool $actual is older than the pinned minimum $min" >&2
        exit 1
    fi
}

echo "=== lint (clang-tidy) ==="
budget 1800 "clang-tidy lint" tools/run_lint.sh

# Extra static analyzers: required when installed (with pinned minimum
# versions), skipped loudly when the container doesn't ship them.
echo "=== lint (cppcheck, required when installed) ==="
if command -v cppcheck >/dev/null 2>&1; then
    CPPCHECK_VER=$(cppcheck --version | sed 's/^Cppcheck //;s/ .*//')
    require_version cppcheck 2.7 "$CPPCHECK_VER"
    budget 900 "cppcheck" cppcheck --quiet --error-exitcode=1 \
        --enable=warning,portability --inline-suppr \
        --suppress=internalAstError -I src src tools
else
    echo "ci: cppcheck not found; skipping"
fi

echo "=== lint (shellcheck, required when installed) ==="
if command -v shellcheck >/dev/null 2>&1; then
    SHELLCHECK_VER=$(shellcheck --version |
        sed -n 's/^version: //p')
    require_version shellcheck 0.8.0 "$SHELLCHECK_VER"
    budget 120 "shellcheck" shellcheck tools/*.sh tests/*.sh
else
    echo "ci: shellcheck not found; skipping"
fi

for preset in default asan ubsan; do
    echo "=== preset: $preset (configure/build/tier-1 ctest) ==="
    budget 300 "$preset configure" cmake --preset "$preset" >/dev/null
    budget 1200 "$preset build" \
        cmake --build --preset "$preset" -j "$(nproc)" >/dev/null
    budget 900 "$preset ctest" ctest --preset "${preset/default/tier1}"
done

# SARIF artifact for ingestion by code-scanning UIs; it needs the
# default preset's build/tools/hmgcheck.
echo "=== hmgcheck: static report as a SARIF artifact ==="
mkdir -p build/artifacts
budget 120 "hmgcheck sarif" sh -c \
    'build/tools/hmgcheck --static --sarif > build/artifacts/hmgcheck.sarif'
echo "ci: SARIF artifact at build/artifacts/hmgcheck.sarif"

# hostbench (the benchmark behind BENCHMARK.json) compiles src/ in a
# build of its own that no preset touches: build it, check every
# metric's name and unit, and meet the recorded digests, so a src change
# that breaks the benchmark fails here rather than at the benchmark.
echo "=== hostbench: self-test (build, metric names, recorded digests) ==="
budget 900 "hostbench selftest" python3 hostbench/selftest.py

# The fault-injection smokes (requeue/replay/watchdog paths) under ASan:
# the asan test preset filters the tier1 label, so the `fault` label is
# driven directly against the instrumented build.
echo "=== asan: fault-injection label ==="
budget 900 "asan fault ctest" \
    ctest --test-dir build-asan -L fault --output-on-failure

# The PDES time-window mode is the only threaded code in the simulator;
# TSan the differential/transport tests and flat_map_test's concurrent
# ShardedMap writers, so a missed mailbox handoff or shard lock shows up
# as a hard failure, not a once-a-month flake.
echo "=== preset: tsan (PDES, transport and ShardedMap under ThreadSanitizer) ==="
budget 300 "tsan configure" cmake --preset tsan >/dev/null
budget 1200 "tsan build" \
    cmake --build --preset tsan -j "$(nproc)" >/dev/null
budget 900 "tsan ctest" ctest --preset tsan

echo "ci: PASS"
