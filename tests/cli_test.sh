#!/usr/bin/env bash
# CLI hardening test: every malformed or out-of-range flag must be
# rejected with a one-line error and a nonzero exit, never a silent
# atoi()-style zero or a default silently substituted (the old
# --placement behaviour).
# Run as: cli_test.sh <path-to-hmgsim> [repo-root] [path-to-hmglint]
#                    [path-to-bench_engine_microbench]
set -u

HMGSIM=${1:?usage: cli_test.sh <path-to-hmgsim> [repo-root] [path-to-hmglint] [path-to-bench_engine_microbench]}
# Topology example files live relative to the repo root; default to the
# directory above this script so the test runs standalone too.
ROOT=${2:-$(cd "$(dirname "$0")/.." && pwd)}
# hmglint and the engine microbench share hmgsim's flag contract; their
# checks run only when the binary's path is supplied (ctest passes it,
# standalone may not).
HMGLINT=${3:-}
MICROBENCH=${4:-}
fails=0

# reject_by <binary> <description> <args...>: nonzero exit + an error
# line.
reject_by() {
    local bin=$1
    local desc=$2
    shift 2
    local out
    out=$("$bin" "$@" 2>&1)
    local rc=$?
    if [ "$rc" -eq 0 ]; then
        echo "FAIL: $desc: exit 0, expected rejection ($*)"
        fails=$((fails + 1))
        return
    fi
    if ! printf '%s' "$out" | grep -q "fatal:"; then
        echo "FAIL: $desc: no error line on stderr ($*)"
        fails=$((fails + 1))
        return
    fi
    if [ "$(printf '%s\n' "$out" | wc -l)" -gt 2 ]; then
        # One line of error (plus at most the usage banner trigger);
        # a stack of warnings would mean we simulated before rejecting.
        :
    fi
    echo "ok:   $desc"
}

# expect_reject <description> <args...>: reject_by for hmgsim.
expect_reject() { reject_by "$HMGSIM" "$@"; }

# expect_accept <description> <args...>: exit 0.
expect_accept() {
    local desc=$1
    shift
    if ! "$HMGSIM" "$@" > /dev/null 2>&1; then
        echo "FAIL: $desc: nonzero exit ($*)"
        fails=$((fails + 1))
        return
    fi
    echo "ok:   $desc"
}

expect_accept "--help exits 0" --help

expect_reject "unknown option" --frobnicate
expect_reject "unknown workload" --workload bogus
expect_reject "unknown protocol" --protocol tso
expect_reject "unknown placement" --placement diagonal
expect_reject "missing value" --workload

expect_reject "negative scale" --workload bfs --scale -1
expect_reject "zero scale" --workload bfs --scale 0
expect_reject "non-numeric scale" --workload bfs --scale fast
expect_reject "trailing garbage" --workload bfs --scale 1.0x
expect_reject "non-numeric seed" --workload bfs --seed abc
expect_reject "negative seed" --workload bfs --seed -3

expect_reject "zero jobs" --workload all --jobs 0
expect_reject "zero lp-jobs" --workload bfs --lp-jobs 0
expect_reject "zero gpus" --gpus 0
expect_reject "huge gpus" --gpus 99999999999999999999
expect_reject "zero l2" --l2-mb 0
expect_reject "zero inter-bw" --inter-bw 0

expect_reject "drop prob > 1" --workload bfs --fault-drop 2.0
expect_reject "negative drop prob" --workload bfs --fault-drop -0.1
expect_reject "corrupt prob > 1" --workload bfs --fault-corrupt 1.5
expect_reject "non-numeric delay prob" --workload bfs --fault-delay often
expect_reject "zero delay cycles" --workload bfs --fault-delay-cycles 0
expect_reject "zero retry timeout" --workload bfs --fault-timeout 0
# now + delay and now + (timeout << backoff) must not wrap: both are
# capped well below the engine's schedule horizon.
expect_reject "delay cycles past the cap" --workload bfs --scale 0.01 \
    --fault-delay 0.01 --fault-delay-cycles 18446744073709551615
expect_reject "retry timeout past the cap" --workload bfs --scale 0.01 \
    --fault-drop 0.01 --fault-timeout 288230376151711744
expect_reject "zero watchdog" --workload bfs --watchdog 0
expect_reject "malformed flap" --workload bfs --fault-flap 1:egress:0
expect_reject "bad flap direction" --workload bfs --fault-flap 1:both:0:0
expect_reject "non-numeric flap gpu" --workload bfs --fault-flap x:egress:0:0
expect_reject "flap gpu out of range" --workload bfs --fault-flap 64:egress:0:0

# Probabilities summing past 1 are a config error even though each is
# individually in range.
expect_reject "prob sum > 1" --workload bfs \
    --fault-drop 0.5 --fault-corrupt 0.4 --fault-delay 0.2

# --topology: the file owns every geometry knob; mixing it with a
# legacy geometry flag must be rejected by flag name, a missing or
# malformed file must be a one-line fatal, and node counts that don't
# divide the GPU count must die in validation.
TOPO_DIR="$ROOT/examples/topologies"
expect_reject "missing topology file" --topology /nonexistent/t.json
expect_reject "topology + --gpus conflict" \
    --topology "$TOPO_DIR/dgx_4x4.json" --gpus 8
expect_reject "topology + --nodes conflict" \
    --topology "$TOPO_DIR/two_node_2x2x2.json" --nodes 2
expect_reject "topology + --l2-mb conflict" \
    --topology "$TOPO_DIR/dgx_4x4.json" --l2-mb 24
expect_reject "zero nodes" --nodes 0
expect_reject "nodes not dividing gpus" --nodes 3 --workload bfs

TMP_TOPO=$(mktemp /tmp/cli_topo_XXXXXX.json)
TMP_TRACE=$(mktemp /tmp/cli_trace_XXXXXX.hmgtrace)
trap 'rm -f "$TMP_TOPO" "$TMP_TRACE"' EXIT
printf '{ "nodes": 2, "warpSpeed": 9 }\n' > "$TMP_TOPO"
expect_reject "topology with unknown key" --topology "$TMP_TOPO"
printf '{ "nodes": 0 }\n' > "$TMP_TOPO"
expect_reject "topology with zero tier" --topology "$TMP_TOPO"
printf 'not json at all\n' > "$TMP_TOPO"
expect_reject "malformed topology file" --topology "$TMP_TOPO"

expect_accept "baseline topology file runs" \
    --topology "$TOPO_DIR/dgx_4x4.json" --workload bfs --scale 0.05
expect_accept "three-level topology file runs" \
    --topology "$TOPO_DIR/two_node_2x2x2.json" --workload bfs --scale 0.05
expect_accept "topology + non-geometry flags compose" \
    --topology "$TOPO_DIR/two_node_2x2x2.json" --protocol hmg \
    --workload bfs --scale 0.05 --seed 7

# hmglint holds the same contract as hmgsim: a topology file owns the
# geometry knobs, so mixing it with a legacy geometry flag is rejected
# by flag name (not silently shadowed), strict numeric parsing applies,
# and the two machine output formats are mutually exclusive.
if [ -n "$HMGLINT" ]; then
    lint_reject() { reject_by "$HMGLINT" "$@"; }
    lint_accept() {
        local desc=$1
        shift
        if ! "$HMGLINT" "$@" > /dev/null 2>&1; then
            echo "FAIL: $desc: nonzero exit ($*)"
            fails=$((fails + 1))
            return
        fi
        echo "ok:   $desc"
    }

    lint_accept "hmglint --help exits 0" --help
    lint_reject "hmglint unknown option" --frobnicate
    lint_reject "hmglint missing value" --cdg --gpus
    lint_reject "hmglint zero gpus" --cdg --gpus 0
    lint_reject "hmglint non-numeric gpms" --cdg --gpms many
    lint_reject "hmglint huge nodes" --cdg --nodes 99999999999999999999
    lint_reject "hmglint topology + --gpus conflict" \
        --cdg --topology "$TOPO_DIR/dgx_4x4.json" --gpus 8
    lint_reject "hmglint topology + --nodes conflict" \
        --cdg --topology "$TOPO_DIR/scaleout_8x8x4.json" --nodes 2
    lint_reject "hmglint missing topology file" \
        --cdg --topology /nonexistent/t.json
    lint_reject "hmglint --json + --sarif conflict" \
        --tables --json --sarif
    lint_accept "hmglint --cdg with explicit geometry" \
        --cdg --gpus 4 --gpms 2 --nodes 2
    lint_accept "hmglint --liveness over a topology file" \
        --liveness --topology "$TOPO_DIR/dgx_4x4.json"
    # These name no hmglint family or mode: rejected, never ignored.
    for flag in --determinism --lockset --seed-lockset --incremental \
                --cache-file --statkeys; do
        lint_reject "hmglint $flag is unknown" "$flag"
    done
    lint_reject "hmglint --root is unknown" --root .
fi

# The engine microbench parses the same way: a malformed, zero or
# out-of-range number and a misspelt flag are fatal, never a silent
# default (perf_smoke reads its output).
if [ -n "$MICROBENCH" ]; then
    bench_reject() { reject_by "$MICROBENCH" "$@"; }
    bench_reject "microbench non-numeric events" --kernel-only --events abc
    bench_reject "microbench zero events" --kernel-only --events 0
    bench_reject "microbench misspelt flag" --kernel-only --evnts 5
    bench_reject "microbench missing value" --kernel-only --events
    bench_reject "microbench zero scale" --kernel-only --sweep-scale 0
    bench_reject "microbench trailing garbage" --kernel-only --pdes-scale 1x
    bench_reject "microbench zero jobs" --kernel-only --jobs 0
fi

# The baseline file must be a no-op: identical statistics to the
# default configuration, proven on the full stats dump.
base=$("$HMGSIM" --workload bfs --scale 0.05 --stats 2>&1)
topo=$("$HMGSIM" --topology "$TOPO_DIR/dgx_4x4.json" \
       --workload bfs --scale 0.05 --stats 2>&1)
if [ "$base" = "$topo" ]; then
    echo "ok:   dgx_4x4.json is bit-identical to the default config"
else
    echo "FAIL: dgx_4x4.json changed the default statistics"
    fails=$((fails + 1))
fi

# Cross-process determinism: one (config, seed) must print byte-identical
# statistics from two separate processes. This is the runtime guard
# against hash-order and entropy leaks; the simulator's hash maps have
# no iteration API (src/common/flat_map.hh).
expect_repeatable() {
    local desc=$1
    shift
    local a b
    if ! a=$("$HMGSIM" "$@" 2>&1) || ! b=$("$HMGSIM" "$@" 2>&1); then
        echo "FAIL: $desc: nonzero exit ($*)"
        fails=$((fails + 1))
        return
    fi
    if [ "$a" != "$b" ]; then
        echo "FAIL: $desc: two processes disagree ($*)"
        fails=$((fails + 1))
        return
    fi
    echo "ok:   $desc"
}
expect_repeatable "mst + HMG + checker repeats across processes" \
    --workload mst --protocol hmg --check --scale 0.05 --stats
expect_repeatable "cusolver + SW-NonHier repeats across processes" \
    --workload cusolver --protocol swnh --scale 0.05 --stats

# --save-trace writes the generated trace; --trace simulates a saved
# one. The reloaded trace must reproduce the generated run's full CSV.
expect_reject "missing trace file" --workload bfs --trace /nonexistent/t
if "$HMGSIM" --workload mst --scale 0.05 --save-trace "$TMP_TRACE" \
        > /dev/null 2>&1 &&
   gen=$("$HMGSIM" --workload mst --scale 0.05 --csv 2>&1) &&
   loaded=$("$HMGSIM" --workload mst --trace "$TMP_TRACE" --csv 2>&1) &&
   [ -n "$gen" ] && [ "$gen" = "$loaded" ]; then
    echo "ok:   saved and reloaded trace gives byte-identical --csv"
else
    echo "FAIL: --save-trace/--trace round trip changed the --csv output"
    fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
    echo "cli_test: $fails failure(s)"
    exit 1
fi
echo "cli_test: all checks passed"
