#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on the miniature inputs (--mini, 1 s) through
perfbench/run.py and checks that:

  - BENCHMARK.json and perfbench/workloads.json describe the same workloads
    and per-layer metrics, and every per-layer metric names what it moves;
  - each untraced run emits every end-to-end metric and each traced run
    every per-layer metric of BENCHMARK.json, each with its unit, in a last
    stdout line holding exactly correct/attempted/failed/metrics, with
    error_rate (failed / attempted) 0;
  - a traced run missing one of its own per-layer metrics is a problem
    (only other workloads' metrics are filled in as 0);
  - an injected wrong output (a corrupted reply, checksum or digest) is
    counted in failed and makes the command exit non-zero;
  - without the repository's sources next to it the benchmark exits
    non-zero without printing a result.

Exits 0 when every check holds; prints each failed check otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    done = subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads((BENCH_DIR / "workloads.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    expect(sorted(workloads) == sorted(doc["workloads"]),
           "workloads.json documents every workload of BENCHMARK.json")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect(per_layer == set(doc["per_layer"]),
           "workloads.json maps exactly the per-layer metrics of BENCHMARK.json")
    known = end_to_end | per_layer | {"error_rate"}
    for name, entry in doc["per_layer"].items():
        expect(entry["workload"] in workloads + ["all"] and
               all(m in known for m in entry["moves"]),
               f"{name} names its workload and the metrics it moves")
    for name, entry in doc["workloads"].items():
        expect(set(entry["end_to_end"]) == end_to_end,
               f"{name} defines every end-to-end metric")
    return spec, workloads


def check_run(spec, workload, trace):
    code, result = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--mini"])
    label = f"{workload} trace={trace}"
    expect(code == 0, f"{label} exits 0")
    if result is None:
        expect(False, f"{label} prints a JSON result last")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label} result has exactly correct/attempted/failed/metrics")
    expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
           f"{label} error_rate is 0 over {result['attempted']} checks")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        expect(got is not None and got.get("unit") == metric["unit"] and
               isinstance(got.get("value"), (int, float)),
               f"{label} emits {metric['name']} in {metric['unit']}")


def check_missing_metric(spec, workloads):
    """A traced run that leaves out one of its own per-layer metrics is a
    problem; only other workloads' metrics are filled in as 0."""
    sys.path.insert(0, str(BENCH_DIR))
    sys.dont_write_bytecode = True
    import run as bench
    owners = bench.owners()
    for workload in workloads:
        result = {"metrics": {}}
        problems = bench.complete(result, spec, True, workload)
        own = [name for name, owner in owners.items() if owner in (workload, "all")]
        expect(all(any(f" {name} missing" in p for p in problems) for name in own) and
               all(name in result["metrics"] for name in owners if name not in own),
               f"{workload}: a missing own per-layer metric is reported, "
               "other workloads' metrics are filled in as 0")


def check_fault(workload):
    code, result = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--mini", "--inject-fault"])
    expect(code != 0 and result is not None and not result["correct"] and
           result["failed"] >= 1,
           f"{workload}: an injected wrong output is counted and fails the run")


def check_without_sources():
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench")
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "native-runtime", "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=tmp, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=180)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "without the sources the benchmark fails and prints no result")


def main():
    spec, workloads = check_spec()
    check_missing_metric(spec, workloads)
    for workload in workloads:
        for trace in (0, 1):
            check_run(spec, workload, trace)
        check_fault(workload)
    check_without_sources()
    print(f"\n{len(failures)} check(s) failed" if failures else "\nself-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
