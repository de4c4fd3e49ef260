#!/usr/bin/env bash
# CLI hardening test: every malformed or out-of-range flag must be
# rejected with a one-line error and a nonzero exit, never a silent
# atoi()-style zero or a default silently substituted (the old
# --placement behaviour).
# Run as: cli_test.sh <path-to-hmgsim> [repo-root] [path-to-hmgcheck]
#                    [path-to-bench_engine_microbench]
#                    [path-to-bench_table3_workloads]
set -u

HMGSIM=${1:?usage: cli_test.sh <path-to-hmgsim> [repo-root] [path-to-hmgcheck] [path-to-bench_engine_microbench] [path-to-bench_table3_workloads]}
# Topology example files live relative to the repo root; default to the
# directory above this script so the test runs standalone too.
ROOT=${2:-$(cd "$(dirname "$0")/.." && pwd)}
# hmgcheck, the engine microbench and the sweep benches share hmgsim's
# flag contract; their checks run only when the binary's path is
# supplied (ctest passes it, standalone may not).
HMGCHECK=${3:-}
MICROBENCH=${4:-}
TABLE3=${5:-}
fails=0

# reject_by <binary> <description> <args...>: nonzero exit and one
# line of output, the `fatal:` line. Only the binary's own --help text
# may follow it (an unknown option prints the usage); any other line
# means the tool did work before it refused the input.
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
    local first rest
    first=$(printf '%s\n' "$out" | head -n 1)
    rest=$(printf '%s\n' "$out" | tail -n +2)
    if [ "${first#fatal:}" = "$first" ]; then
        echo "FAIL: $desc: output does not start with a fatal: line ($*)"
        fails=$((fails + 1))
        return
    fi
    if [ -n "$rest" ] && [ "$rest" != "$("$bin" --help 2>&1)" ]; then
        echo "FAIL: $desc: more than the fatal: line ($*)"
        printf '%s\n' "$out" | head -n 8 | sed 's/^/      | /'
        fails=$((fails + 1))
        return
    fi
    echo "ok:   $desc"
}

# accept_by <binary> <description> <args...>: exit 0.
accept_by() {
    local bin=$1
    local desc=$2
    shift 2
    if ! "$bin" "$@" > /dev/null 2>&1; then
        echo "FAIL: $desc: nonzero exit ($*)"
        fails=$((fails + 1))
        return
    fi
    echo "ok:   $desc"
}

# expect_reject / expect_accept <description> <args...>: for hmgsim.
expect_reject() { reject_by "$HMGSIM" "$@"; }
expect_accept() { accept_by "$HMGSIM" "$@"; }

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

# A knob the chosen model never reads would run identically to the same
# command line without it: refused by name, never silently ignored.
expect_reject "downgrade under a software protocol" --workload bfs \
    --scale 0.01 --protocol swh --downgrade --dir-lines 1
expect_reject "downgrade with multi-line directory entries" \
    --workload bfs --scale 0.01 --downgrade
expect_reject "hier-release under NHCC" --workload bfs --scale 0.01 \
    --protocol nhcc --hier-release
expect_reject "deterministic without lp-jobs" --workload bfs --scale 0.01 \
    --deterministic
expect_reject "deterministic on a one-GPU machine (one LP)" \
    --gpus 1 --lp-jobs 4 --deterministic --workload bfs --scale 0.02
expect_accept "deterministic over two nodes (two LPs)" \
    --nodes 2 --gpus 2 --lp-jobs 4 --deterministic --workload bfs \
    --scale 0.02

# Probabilities summing past 1 are a config error even though each is
# individually in range.
expect_reject "prob sum > 1" --workload bfs \
    --fault-drop 0.5 --fault-corrupt 0.4 --fault-delay 0.2

# A geometry that parses but whose tag store cannot be mapped (about
# 2.2 TB of directory entries, or 0.8 TB of L2 tags; Linux's default
# overcommit heuristic refuses a writable private mapping larger than
# RAM plus swap) is a located fatal naming the bytes and the fields
# behind them, not an uncaught std::bad_alloc.
expect_reject "directory too large to map" --workload bfs --scale 0.01 \
    --dir-entries 4294967288
expect_reject "L2 too large to map" --workload bfs --scale 0.01 \
    --l2-mb 1048576

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

# hmgcheck holds the same contract as hmgsim: a topology file owns the
# geometry knobs, so mixing it with a geometry flag is rejected by flag
# name (not silently shadowed), numbers parse strictly (never atoi), a
# flag only the retry and explore stages read is fatal under --static,
# and the two machine output formats need --static and exclude each
# other.
if [ -n "$HMGCHECK" ]; then
    check_reject() { reject_by "$HMGCHECK" "$@"; }
    check_accept() { accept_by "$HMGCHECK" "$@"; }
    # check_reject_first <description> <args...>: rejected before any
    # stage ran, so the fatal line is the whole output.
    check_reject_first() {
        local desc=$1
        shift
        local out
        if out=$("$HMGCHECK" "$@" 2>&1) ||
           [ "$(printf '%s\n' "$out" | wc -l)" -ne 1 ] ||
           ! printf '%s' "$out" | grep -q "^fatal:"; then
            echo "FAIL: $desc: expected one fatal line and no stage ($*)"
            fails=$((fails + 1))
            return
        fi
        echo "ok:   $desc"
    }

    check_accept "hmgcheck --help exits 0" --help
    check_reject "hmgcheck unknown option" --frobnicate
    check_reject "hmgcheck missing value" --static --gpus
    check_reject "hmgcheck zero gpus" --static --gpus 0
    check_reject "hmgcheck non-numeric gpms" --static --gpms many
    check_reject "hmgcheck huge nodes" --static --nodes 99999999999999999999
    check_reject "hmgcheck nodes not dividing gpus" --static --gpus 3 --nodes 2
    check_reject "hmgcheck more nodes than gpus" --static --gpus 2 --nodes 4
    check_reject "hmgcheck topology + --gpus conflict" \
        --static --topology "$TOPO_DIR/dgx_4x4.json" --gpus 8
    check_reject "hmgcheck topology + --nodes conflict" \
        --static --topology "$TOPO_DIR/scaleout_8x8x4.json" --nodes 2
    check_reject "hmgcheck missing topology file" \
        --static --topology /nonexistent/t.json
    check_reject "hmgcheck --json + --sarif conflict" \
        --static --json --sarif
    check_reject "hmgcheck --json without --static" --json
    check_reject "hmgcheck --static + --seed-bad-row conflict" \
        --static --seed-bad-row
    check_reject "hmgcheck --static + --protocol conflict" \
        --static --protocol nhcc
    check_reject "hmgcheck exploration at the scale-out shape" \
        --topology "$TOPO_DIR/scaleout_8x8x4.json"
    check_reject "hmgcheck --nodes 2 alone is no exploration shape" \
        --protocol hmg --nodes 2
    check_reject "hmgcheck nhcc at the 2-node shape" --protocol nhcc \
        --topology "$TOPO_DIR/two_node_2x2x2.json"
    check_accept "hmgcheck --static with explicit geometry" \
        --static --gpus 4 --gpms 2 --nodes 2
    check_accept "hmgcheck --static over a topology file" \
        --static --topology "$TOPO_DIR/dgx_4x4.json"
    # Exploration-stage numbers: strict, range-checked, and checked
    # before any stage runs.
    check_reject_first "hmgcheck non-numeric dir-cap" --dir-cap abc
    check_reject_first "hmgcheck zero dir-cap" --dir-cap 0
    check_reject_first "hmgcheck dir-cap past int range" \
        --dir-cap 99999999999
    check_reject_first "hmgcheck retry-losses past the state byte" \
        --retry-losses 256
    check_reject_first "hmgcheck negative retry-losses" --retry-losses -1
    check_reject_first "hmgcheck trailing garbage in nodes" --nodes 1x
    check_reject_first "hmgcheck unknown workload" --workload bogus
    # These name no hmgcheck stage or mode: rejected, never ignored.
    for flag in --tables --cdg --liveness --determinism --lockset \
                --seed-lockset --seed-livelock --incremental --cache-file \
                --statkeys; do
        check_reject "hmgcheck $flag is unknown" "$flag"
    done
    check_reject "hmgcheck --root is unknown" --root .
    # The static proofs are drawn from the fabric of the machine the
    # file describes, so a seeded cycle names each pool with the size
    # the simulator gives it: 2 x 384.6 B/cycle x (1000 + 8) cycles for
    # a GPM ingress fed over a 2000-cycle inter-GPU hop.
    sed 's/"interGpuHopLatency": 600,/"interGpuHopLatency": 2000,/' \
        "$TOPO_DIR/two_node_2x2x2.json" > "$TMP_TOPO"
    if grep -q '"interGpuHopLatency": 2000,' "$TMP_TOPO" &&
       out=$("$HMGCHECK" --static --seed-cdg-cycle \
                 --topology "$TMP_TOPO" 2>&1) &&
       printf '%s' "$out" | grep -q "775384B"; then
        echo "ok:   hmgcheck cdg pools follow the topology's latencies"
    else
        echo "FAIL: hmgcheck cdg pools ignore the topology's latencies"
        fails=$((fails + 1))
    fi
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

# The sweep benches (bench_table3_workloads stands for them) take only
# --jobs N, and read HMG_JOBS and HMG_BENCH_SCALE as strictly as hmgsim
# reads --jobs and --scale.
if [ -n "$TABLE3" ]; then
    sweep_reject() { reject_by env "$@"; }
    sweep_reject "sweep bench trailing garbage in --jobs" "$TABLE3" --jobs 2x
    sweep_reject "sweep bench --jobs without a value" "$TABLE3" --jobs
    sweep_reject "sweep bench --jobs past int range" \
        "$TABLE3" --jobs 99999999999
    sweep_reject "sweep bench --jobs=N form" "$TABLE3" --jobs=2
    sweep_reject "sweep bench unknown argument" "$TABLE3" --scale 0.01
    sweep_reject "sweep bench trailing garbage in HMG_JOBS" \
        HMG_JOBS=3junk "$TABLE3"
    sweep_reject "sweep bench non-numeric HMG_BENCH_SCALE" \
        HMG_BENCH_SCALE=abc "$TABLE3"
    sweep_reject "sweep bench trailing garbage in HMG_BENCH_SCALE" \
        HMG_BENCH_SCALE=0.05x "$TABLE3"
    accept_by env "sweep bench small scale with two jobs" \
        HMG_BENCH_SCALE=0.01 "$TABLE3" --jobs 2
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
