#!/usr/bin/env python3
"""End-to-end benchmark of omptune: build, run, check, report.

One workload, as a benchmark harness invokes it:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

builds the `perfbench` binary from source (perfbench/CMakeLists.txt, into
.bench_build/perfbench), runs the workload in a fresh process and prints, as
the last stdout line, one JSON object with the keys correct, attempted,
failed and metrics: every end-to-end metric of BENCHMARK.json untraced, every
per-layer metric traced (a layer the workload does not run reports 0).

The whole benchmark in one command:

    python3 perfbench/run.py [--seed N] [--seconds S]

runs every workload untraced and then traced, each in its own process,
prints each end-to-end metric by name with its unit, the error rate and the
tracing overhead (traced wall time minus untraced wall time) per workload,
records the run's conditions, writes everything to
.bench_build/perfbench-results.json and exits non-zero if any output check
failed.

Maintenance: `--record` re-records perfbench/references.txt (the digests
the table2-pipeline and fleet-collect checks compare against) from the
current code; `--mini` runs the reduced-size inputs of the self-test.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
REFERENCES = BENCH_DIR / "references.txt"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["table2-pipeline", "fleet-collect", "serve-mixed", "native-runtime"]
REFERENCE_SEEDS = 16  # kReferenceSeeds in common.hpp


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure and build the perfbench binary; exits 2 on failure."""
    BUILD_ROOT.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                      "--target", "perfbench"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-6000:])
                log("perfbench: build failed: " + " ".join(step))
                sys.exit(2)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_binary(workload, seed, seconds, trace, mini=False, inject_fault=False,
               record=False):
    """Run one workload in a fresh process; returns (code, stdout lines)."""
    work = BUILD_ROOT / "work" / f"{workload}-{os.getpid()}"
    traces = BUILD_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", str(work), "--references", str(REFERENCES),
               "--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    if mini:
        command.append("--mini")
    if inject_fault:
        command.append("--inject-fault")
    if record:
        command.append("--record")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def owners():
    """Per-layer metric name -> the workload that emits it (or "all"), as
    perfbench/workloads.json assigns them."""
    with open(BENCH_DIR / "workloads.json") as f:
        return {name: entry["workload"]
                for name, entry in json.load(f)["per_layer"].items()}


def complete(result, spec, trace, workload):
    """Check the binary's metrics against BENCHMARK.json and add, as 0, the
    per-layer metrics that workloads.json assigns to another workload. A
    missing metric of the workload itself is a problem. Returns a list of
    problems."""
    problems = []
    metrics = result["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    owner = owners() if trace else {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            if trace and owner.get(name) not in (workload, "all", None):
                metrics[name] = {"value": 0, "unit": unit}
            else:
                kind = "per-layer" if trace else "end-to-end"
                problems.append(f"{workload}: {kind} metric {name} missing")
            continue
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            problems.append(f"{workload}: {name} unit {metrics[name]['unit']} != {unit}")
        if value is None or not math.isfinite(value) or (not trace and value <= 0):
            problems.append(f"{workload}: {name} = {value} is not a measurement")
    names = {entry["name"] for entry in wanted}
    for name in list(metrics):
        if name not in names:
            problems.append(f"{workload}: {name} is not listed in BENCHMARK.json")
    return problems


def run_workload(spec, workload, seed, seconds, trace, mini=False,
                 inject_fault=False):
    """Run and validate one workload; returns (result dict or None,
    conditions line, names of the metrics the workload itself emitted)."""
    code, lines = run_binary(workload, seed, seconds, trace, mini, inject_fault)
    conditions = next((l for l in lines if l.startswith("conditions:")), "")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: {workload} produced no result (exit {code})")
        return None, conditions, set()
    emitted = set(result["metrics"])
    problems = complete(result, spec, trace, workload)
    for problem in problems:
        log("perfbench: " + problem)
    if code != 0 or problems:
        result["correct"] = False
        result["failed"] = max(result["failed"], 1)
    return result, conditions, emitted


def commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_all(spec, args):
    """Every workload untraced and traced; a readable report plus a JSON file."""
    report = {"conditions": {"seed": args.seed, "seconds": args.seconds,
                             "nproc": os.cpu_count(), "commit": commit(),
                             "size": "mini" if args.mini else "full"},
              "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        untraced, conditions, _ = run_workload(spec, workload, args.seed,
                                               args.seconds, False, args.mini)
        traced, _, layers = run_workload(spec, workload, args.seed, args.seconds,
                                         True, args.mini)
        report["conditions"]["binary"] = conditions.removeprefix("conditions: ")
        if untraced is None or traced is None:
            ok = False
            report["workloads"][workload] = None
            continue
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        entry = {
            "end_to_end": untraced["metrics"],
            "per_layer": {k: v for k, v in traced["metrics"].items() if k in layers},
            "error_rate": failed / attempted if attempted else 1.0,
            "attempted": attempted,
            "failed": failed,
            "tracing_overhead_s": traced["metrics"]["trace.wall_s"]["value"]
            - untraced["metrics"]["wall_s"]["value"],
        }
        report["workloads"][workload] = entry
        ok = ok and untraced["correct"] and traced["correct"]
        print(f"\n{workload}")
        for name, metric in untraced["metrics"].items():
            print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
        print(f"  {'error_rate':<34} {entry['error_rate']:>16.6g} ratio "
              f"({failed} of {attempted} checks failed)")
        print(f"  {'tracing_overhead_s':<34} {entry['tracing_overhead_s']:>16.6g} s")
        print("  traced:")
        for name in sorted(entry["per_layer"]):
            metric = entry["per_layer"][name]
            print(f"    {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    print("\nconditions: " + json.dumps(report["conditions"]))
    out = BUILD_ROOT / "perfbench-results.json"
    with open(out, "w") as f:
        json.dump(report, f, indent=2)
    print(f"results written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


def record():
    """Re-record the reference digests of every reference seed, both sizes."""
    lines = ["# Reference digests of the table2-pipeline outputs, recorded by",
             "# `python3 perfbench/run.py --record`: <size> <seed> <field> <hex>.",
             "# fleet-collect compares against the `dataset` digests."]
    for mini in (True, False):
        for seed in range(REFERENCE_SEEDS):
            code, out = run_binary("table2-pipeline", seed, 0, False, mini=mini,
                                   record=True)
            if code != 0:
                log(f"perfbench: recording seed {seed} failed")
                return 1
            lines += [l for l in out if not l.startswith("conditions:")]
            log(f"recorded {'mini' if mini else 'full'} seed {seed}")
    REFERENCES.write_text("\n".join(lines) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mini", action="store_true",
                        help="reduced-size inputs (self-test)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one output before it is checked")
    parser.add_argument("--record", action="store_true",
                        help="re-record perfbench/references.txt")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    if args.record:
        return record()
    if args.workload == "all":
        return run_all(spec, args)
    result, conditions, _ = run_workload(spec, args.workload, args.seed,
                                         args.seconds, bool(args.trace), args.mini,
                                         args.inject_fault)
    if result is None:
        return 1
    print(f"{conditions} commit={commit()}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
