"""Benchmark of the folkman enumeration engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of descent, extension, exhaustive, pipeline, or ``all`` to run
each in turn.  Every repetition runs in a fresh worker process (worker.py)
with the workload's kernel backend; the compiled backend is built first
from src/folkman/_kernels_cy.c (bench_build.py).

With --trace 0 the workload repeats until S seconds have passed (at least
once) and the end-to-end metrics are medians over the repetitions:
wall_ref_s and cpu_ref_s of the timed operation, peak_rss_mb of the worker
and its children, and setup_s (interpreter start, imports and input
loading) over at least SETUP_SAMPLES fresh processes.  Times are scaled to
a reference CPU speed sampled while they are measured (speed.py); the raw
times are printed too.  With --trace 1 one untraced and
one traced repetition run with workers = 1; the per-layer metrics come from
the traced one, whose output must equal the untraced one.

Every repetition's output is checked against reference.json.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_build
import tracer
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170.0

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Failure(RuntimeError):
    pass


def spawn(wl, seed, mode, workers, env, deadline, spans=None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", wl.name,
        "--seed", str(seed),
        "--mode", mode,
        "--workers", str(workers),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=bench_build.ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"errors": [f"{mode} repetition timed out"]}
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"errors": [f"worker exited {proc.returncode} without a result: {err[-2000:]}"]}


def worker_env(wl) -> dict:
    env = dict(os.environ)
    env.pop("FOLKMAN_PURE", None)
    if wl.backend == "python":
        env["FOLKMAN_PURE"] = "1"
    # string hashing decides set and dict layouts, so fix it between runs
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    for p in range(99, 0, -1):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def record(rep, failures, label):
    """Note a failed repetition; True when it succeeded."""
    if rep.get("errors"):
        failures.append(f"{label}: " + "; ".join(rep["errors"]))
        return False
    return True


def run_untraced(wl, seed, seconds, env, deadline, failures):
    """Repeat the workload for ``seconds``; returns (repetitions, metrics)."""
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        rep = spawn(wl, seed, "run", wl.workers, env, deadline)
        reps.append(rep)
        if not record(rep, failures, f"repetition {len(reps)}") and "wall_ref_s" not in rep:
            break
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES and not failures:
        rep = spawn(wl, seed, "setup", wl.workers, env, deadline)
        if record(rep, failures, "setup"):
            setups.append(rep["setup_s"])
    good = [r for r in reps if "wall_ref_s" in r]
    if not good or not setups:
        raise Failure("no repetition gave a measurement")
    digests = {r["digest"] for r in good}
    if len(digests) != 1:
        failures.append(f"repetitions disagree on the output: {sorted(digests)}")
    metrics = {k: statistics.median(r[k] for r in good) for k in END_TO_END if k != "setup_s"}
    metrics["setup_s"] = statistics.median(setups)
    raw = {k: statistics.median(r[k] for r in good) for k in ("wall_raw_s", "cpu_raw_s", "speed_scale")}
    print(f"{wl.name}: {len(reps)} repetitions, {len(setups)} setup samples, "
          f"backend {good[0]['backend']}, {good[0]['size']} output items")
    print(f"  raw wall {raw['wall_raw_s']:.3f} s, raw cpu {raw['cpu_raw_s']:.3f} s, "
          f"speed scale {raw['speed_scale']:.4f}")
    host_ms = [ms for r in good for ms in r.get("host_ms", [])]
    if host_ms:
        p = tail_percentile(len(host_ms))
        tail = f", p{p} {percentile(host_ms, p):.3f} ms" if p else ""
        print(f"  host_ms over {len(host_ms)} hosts: p50 {statistics.median(host_ms):.3f} ms{tail}")
    return len(reps), {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def run_traced(wl, seed, env, deadline, failures):
    """One untraced and one traced repetition with workers = 1; returns
    (repetitions, per-layer metrics)."""
    OUT.mkdir(exist_ok=True)
    plain = spawn(wl, seed, "run", 1, env, deadline)
    record(plain, failures, "untraced repetition")
    spans = OUT / f"spans-{wl.name}-seed{seed}.json"
    traced = spawn(wl, seed, "trace", 1, env, deadline, spans=spans)
    record(traced, failures, "traced repetition")
    if "layers" not in traced or "wall_ref_s" not in plain:
        raise Failure("traced or untraced repetition gave no measurement")
    if traced["digest"] != plain["digest"]:
        failures.append("traced output differs from untraced output")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (traced["wall_ref_s"] / plain["wall_ref_s"] - 1, "ratio")
    metrics["trace.wrapper_ns"] = (tracer.wrapper_cost_ns(), "ns")
    print(f"{wl.name}: traced {traced['wall_ref_s']:.3f} s against untraced {plain['wall_ref_s']:.3f} s "
          f"(workers = 1), spans in {spans.relative_to(bench_build.ROOT)}")
    return 2, metrics


def run_workload(name, seed, seconds, trace) -> dict:
    wl = workloads.WORKLOADS[name]
    if wl.backend == "compiled":
        info = bench_build.ensure_built()
    else:
        info = bench_build.source_info()
    deadline = time.monotonic() + RUN_BUDGET_S
    failures = []
    print(json.dumps({"workload": name, "backend": wl.backend, "workers": wl.workers, **info}))
    try:
        if trace:
            attempted, metrics = run_traced(wl, seed, worker_env(wl), deadline, failures)
        else:
            attempted, metrics = run_untraced(wl, seed, seconds, worker_env(wl), deadline, failures)
    finally:
        for line in failures:
            print("FAILED " + line, file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    # a failed check of any kind fails at least one repetition
    failed = min(attempted, len(failures))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (bench_build.PKG / "__init__.py").is_file():
        print(f"program source not found at {bench_build.PKG}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except (bench_build.BuildError, Failure) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name in names:
            print(json.dumps({"workload": name, **results[name]}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
