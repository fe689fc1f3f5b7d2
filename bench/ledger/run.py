#!/usr/bin/env python3
"""Build and run hybench, the ledger benchmark (see README.md here).

One run, as BENCHMARK.json's command runs it (prints one JSON line last):

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

The line holds `correct`, `attempted`, `failed` and `metrics`: with
`--trace 0` every `end_to_end` metric of BENCHMARK.json, with `--trace 1`
every `per_layer` metric. The exit code is hybench's (0 = every check passed).

A set of runs, one full hybench JSON per run written to DIR:

    python3 bench/ledger/run.py --out DIR [--workload NAME] --seed N \
        [--repeat K] [--seconds S] [--trace 0|1]

runs every workload (or the named one) with seeds N .. N+K-1.

CI-sized check, every workload at smoke sizes, schema-checked:

    python3 bench/ledger/run.py --smoke

The program is configured and built from source into .bench_build/ledger at
the root of the checkout on first use.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"
BINARY = BUILD / "hybench"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"run.py: {spec_path} not found")
    with open(spec_path) as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    cmd = ["cmake", "--build", str(BUILD), "--target", "hybench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")


def hybench(workload, seed, seconds, trace, smoke=False, trace_json=None):
    """Runs one hybench process; returns (exit code, parsed JSON or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace_json:
        cmd += ["--trace-json", str(trace_json)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
        return 124, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def result_line(result, names):
    """The one-line result holding exactly the metrics `names`, or None if
    one is missing."""
    metrics = {}
    for name in names:
        m = result["metrics"].get(name)
        if m is None:
            log(f"metric {name} missing from the hybench output")
            return None
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def check_schema(result, spec, traced):
    """Problems with one smoke result, as a list of strings."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics", "workload"):
        if key not in result:
            problems.append(f"missing key {key}")
    if problems:
        return problems
    if not result["correct"] or result["failed"] != 0:
        problems.append("run not correct")
    if result["attempted"] < 1:
        problems.append("no ops attempted")
    wanted = spec["end_to_end"] + (spec["per_layer"] if traced else [])
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} unit {got['unit']} != "
                            f"{m['unit']}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"metric {m['name']} not a number")
    return problems


def smoke(spec):
    start = time.monotonic()
    failures = 0
    for w in spec["workloads"]:
        for traced in (False, True):
            code, result = hybench(w["name"], 1, 0.5, traced, smoke=True)
            problems = [f"exit code {code}"] if code != 0 else []
            if result is None:
                problems.append("no JSON result")
            else:
                problems += check_schema(result, spec, traced)
            tag = "traced" if traced else "untraced"
            if problems:
                failures += 1
                log(f"smoke {w['name']} {tag}: FAIL: {'; '.join(problems)}")
            else:
                log(f"smoke {w['name']} {tag}: ok")
    log(f"smoke: {failures} failure(s) in {time.monotonic() - start:.1f} s")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path,
                    help="write one full hybench JSON per run here")
    ap.add_argument("--repeat", type=int, default=1,
                    help="with --out: seeds SEED .. SEED+REPEAT-1")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    build()
    if args.smoke:
        return smoke(spec)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    if args.out is None:
        if args.workload not in names:
            sys.exit(f"run.py: --workload must be one of {', '.join(names)}")
        code, result = hybench(args.workload, args.seed, seconds,
                               args.trace == 1)
        if result is None:
            sys.exit(f"run.py: hybench exited {code} without a result")
        metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
        line = result_line(result, [m["name"] for m in metrics])
        if line is None:
            return 1
        print(json.dumps(line))
        return code

    workloads = [args.workload] if args.workload else names
    args.out.mkdir(parents=True, exist_ok=True)
    worst = 0
    for seed in range(args.seed, args.seed + args.repeat):
        for w in workloads:
            stem = f"{w}.seed{seed}" + (".traced" if args.trace else "")
            trace_json = args.out / f"{stem}.trace.json" if args.trace else None
            code, result = hybench(w, seed, seconds, args.trace == 1,
                                   trace_json=trace_json)
            if result is not None:
                with open(args.out / f"{stem}.json", "w") as f:
                    json.dump(result, f, indent=1)
                    f.write("\n")
            log(f"{stem}: exit {code}")
            worst = max(worst, code if result is not None else 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
