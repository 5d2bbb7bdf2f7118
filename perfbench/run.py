#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py [--seed <n>] [--seconds <s>]      # every workload

Run from the repository root. The first call configures and builds
perfbench/ (which pulls in the library sources) under .bench_build/perfbench;
later calls only rebuild what changed. Each workload runs in its own process.

--trace 0 prints the end-to-end metrics of one untraced run. --trace 1 runs
the workload untraced and then traced, and prints the per-layer metrics of the
traced run plus trace.overhead.<metric> = traced / untraced for every
end-to-end metric. Per-layer metrics a workload does not exercise read 0.

Measured runs get OMP_NUM_THREADS=1, so every engine or trainer worker runs
one OpenMP thread and no workload runs more busy threads than a 4-core host
has. With the library's default (one team of nproc threads per worker) the
figures follow other tenants' load on a shared host, not the program. The
default is still measured: --trace 1 adds one untraced run of a quarter of
the seconds in the environment as found and reports it as
omp_as_found.<metric>.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; host facts are printed on the line before it. Exit code 0
when every correctness check passed, 1 when one failed, 2 on a build or usage
error (then no result line is printed).
"""
import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["serve_posit", "serve_float_tiny", "train_posit", "train_dp"]
RUN_LIMIT_S = 170  # one --workload call, all its child runs together
THREAD_BUDGET = {"OMP_NUM_THREADS": "1"}
AS_FOUND_METRICS = ["lat_p50_ms.heavy", "lat_p90_ms.heavy", "samples_per_s"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources (CMakeLists.txt, src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def run_child(workload, seed, seconds, trace, budget=True, deadline=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    env = dict(os.environ, **THREAD_BUDGET) if budget else None
    limit = RUN_LIMIT_S if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=limit, env=env)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %.0f s" % (workload, limit))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    for name, m in result["metrics"].items():
        if m["value"] is None or not math.isfinite(m["value"]):
            fail("%s reported a non-finite %s" % (workload, name))
    for check in result["checks_failed"]:
        print("perfbench: %s check failed: %s" % (workload, check), file=sys.stderr)
    return result


def select(spec, measured, workload, fill_missing):
    """The metrics named in `spec`, in spec order, with the spec's units."""
    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        m = measured.get(name)
        if m is None:
            if not fill_missing:
                fail("%s did not report %s" % (workload, name))
            m = {"value": 0, "unit": unit}
        if m["unit"] != unit:
            fail("%s reported %s in %s, BENCHMARK.json says %s" % (workload, name, m["unit"], unit))
        out[name] = {"value": m["value"], "unit": unit}
    return out


def per_layer(spec, untraced, traced, as_found, workload):
    measured = dict(traced["metrics"])
    for name, m in untraced["metrics"].items():
        base, seen = m["value"], traced["metrics"].get(name)
        if seen is not None and base:
            measured["trace.overhead." + name] = {"value": seen["value"] / base, "unit": "ratio"}
    for name in AS_FOUND_METRICS:
        measured["omp_as_found." + name] = as_found["metrics"][name]
    return select(spec, measured, workload, fill_missing=True)


def traced_runs(workload, seed, seconds, deadline=None):
    """The traced run, then a shorter untraced one with OpenMP's environment as found."""
    return (run_child(workload, seed, seconds, True, deadline=deadline),
            run_child(workload, seed, max(1, seconds // 4), False, budget=False,
                      deadline=deadline))


def host_facts(run):
    host = dict(run["host"])
    host["OMP_NUM_THREADS_as_found"] = os.environ.get("OMP_NUM_THREADS", "unset")
    return json.dumps(host, sort_keys=True)


def print_table(title, workload, metrics):
    print("== %s: %s" % (title, workload))
    for name, m in metrics.items():
        print("   %-36s %14.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e, layers = bench["end_to_end"], bench["per_layer"]

    if args.workload != "all":
        deadline = time.monotonic() + RUN_LIMIT_S
        untraced = run_child(args.workload, args.seed, args.seconds, False, deadline=deadline)
        runs = [untraced]
        if args.trace:
            traced, as_found = traced_runs(args.workload, args.seed, args.seconds, deadline)
            runs += [traced, as_found]
            metrics = per_layer(layers, untraced, traced, as_found, args.workload)
        else:
            metrics = select(e2e, untraced["metrics"], args.workload, fill_missing=False)
        print_table("per-layer (traced)" if args.trace else "end-to-end", args.workload, metrics)
        print("host " + host_facts(untraced))
        correct = all(r["correct"] for r in runs)
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in runs),
                          "failed": sum(r["failed"] for r in runs),
                          "metrics": metrics}))
        sys.exit(0 if correct else 1)

    # Every workload: untraced end-to-end runs first, then the traced runs.
    untraced = {w: run_child(w, args.seed, args.seconds, False) for w in WORKLOADS}
    for w in WORKLOADS:
        print_table("end-to-end", w, select(e2e, untraced[w]["metrics"], w, fill_missing=False))
    traced = {w: traced_runs(w, args.seed, args.seconds) for w in WORKLOADS}
    combined = {}
    for w in WORKLOADS:
        layer_metrics = per_layer(layers, untraced[w], traced[w][0], traced[w][1], w)
        print_table("per-layer (traced)", w, layer_metrics)
        for name, m in select(e2e, untraced[w]["metrics"], w, False).items():
            combined[w + "/" + name] = m
    print("host " + host_facts(untraced[WORKLOADS[0]]))
    runs = list(untraced.values()) + [r for pair in traced.values() for r in pair]
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": combined}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
