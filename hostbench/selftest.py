#!/usr/bin/env python3
"""Self-test of the host-speed benchmark, at tiny scale (about a minute).

    python3 hostbench/selftest.py

Checks that:
  * span self times add up on a synthetic span tree;
  * every workload prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) by name with its BENCHMARK.json unit;
  * a perturbed machine (a much smaller directory) trips the stats-digest
    check, and the run then reports failed cells and no numbers;
  * a seed with no recorded digest still runs end to end;
  * in a directory holding only BENCHMARK.json and hostbench/, the
    benchmark exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
TINY = ["--scale", "0.05", "--seconds", "0"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT, runner=RUN):
    p = subprocess.run(runner + list(args), cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    # Builds the benchmark as a side effect, so the steps below are quick.
    code, res = bench("--workload", "bfs-hmg", "--cells", "1", *TINY)
    check(code == 0 and res and res["correct"], "tiny bfs-hmg cell runs")

    binary = ROOT / ".bench_build" / "hostbench" / "hostbench"
    p = subprocess.run([str(binary), "--self-test-spans"])
    check(p.returncode == 0, "span self times add up on a synthetic tree")

    for w in workloads:
        for trace in (0, 1):
            code, res = bench("--workload", w, "--trace", str(trace),
                              "--cells", "2", *TINY)
            got = {} if not res else {
                k: v.get("unit") for k, v in res["metrics"].items()}
            check(code == 0 and res["correct"] and got == units[trace],
                  f"{w} --trace {trace}: every metric with its unit")

    code, res = bench("--workload", "mst-hmg", "--dir-entries", "64",
                      "--cells", "2", *TINY)
    check(code != 0 and res and not res["correct"]
          and res["failed"] == res["attempted"] and not res["metrics"],
          "a perturbed dirEntriesPerGpm trips the digest check")

    code, res = bench("--workload", "cusolver-swnh", "--seed", "987654",
                      "--cells", "2", *TINY)
    check(code == 0 and res and res["correct"],
          "an unrecorded seed runs end to end")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "hostbench")
    code, res = bench("--workload", "bfs-hmg", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare,
                      runner=[sys.executable, "hostbench/run.py"])
    check(code != 0 and res is None,
          "without the simulator sources the benchmark fails, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
