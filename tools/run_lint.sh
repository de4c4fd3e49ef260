#!/usr/bin/env bash
# Run clang-tidy over the simulator sources using the repo's .clang-tidy.
#
# Degrades gracefully: toolchains without clang-tidy (the reference
# container ships only g++) get a skip, not a failure, so `tools/ci.sh`
# can call this unconditionally. Pass extra args through to clang-tidy,
# e.g. `tools/run_lint.sh --fix`.
#
# LINT_WERROR=1 escalates every clang-tidy warning to an error, turning
# the advisory wall into a gate (CI sets it on protected branches).
set -euo pipefail

cd "$(dirname "$0")/.."

TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
    echo "run_lint: $TIDY not found; skipping lint (install clang-tidy to enable)" >&2
    exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    cmake -S . -B "$BUILD_DIR" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi

# Lint every first-party translation unit; tests are linted too so the
# wall covers the checker/litmus harnesses.
mapfile -t FILES < <(find src tools tests -name '*.cc' ! -path '*/third_party/*' | sort)

WERROR=()
if [ "${LINT_WERROR:-0}" = "1" ]; then
    WERROR=(--warnings-as-errors='*')
    echo "run_lint: LINT_WERROR=1 — warnings gate as errors"
fi

echo "run_lint: ${#FILES[@]} files under $TIDY"
"$TIDY" -p "$BUILD_DIR" --quiet ${WERROR[@]+"${WERROR[@]}"} "$@" "${FILES[@]}"
echo "run_lint: clean"
