"""One measured repetition of a workload, in a fresh process.

Started by run.py; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        --workers W --spawned-at T [--spans FILE]

MODE is ``setup`` (load the inputs and stop), ``run`` (time the operation
and check its output) or ``trace`` (the same with every layer wrapped).
T is the parent's time.monotonic() just before the spawn, so setup time
covers interpreter start, imports and input loading.  Times are reported
raw (``*_raw_s``) and scaled to the reference CPU speed (speed.py).  The process must be
started with FOLKMAN_PURE=1 for a pure-backend workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import bench_build
import speed
import workloads


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def measure(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    if wl.backend == "compiled":
        bench_build.use_compiled_build()
    sys.path.insert(0, str(bench_build.SRC))
    import folkman
    import folkman.pipeline  # noqa: F401  (every module, so setup_s covers the whole package)

    backend = folkman.backend_name()
    if backend != wl.backend:
        return {"backend": backend, "errors": [f"backend is {backend}, workload needs {wl.backend}"]}
    inputs = wl.setup(args.seed)
    setup = time.monotonic() - args.spawned_at
    result = {"backend": backend, "setup_raw_s": setup, "setup_s": setup * speed.scale_now()}
    if args.mode == "setup":
        wl.cleanup(inputs)
        result["errors"] = []
        return result
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        cpu0 = cpu_seconds()
        with speed.SpeedSampler() as sampler:
            start = time.perf_counter()
            outcome = wl.run(inputs, args.workers)
            wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        scale = sampler.scale()
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump(tracer.spans, fh)
        result["wall_raw_s"] = wall
        result["cpu_raw_s"] = cpu
        result["speed_scale"] = scale
        result["wall_ref_s"] = wall * scale
        result["cpu_ref_s"] = cpu * scale
        result["digest"] = outcome.digest()
        result["size"] = outcome.size()
        if "host_ms" in outcome.extra:
            result["host_ms"] = outcome.extra["host_ms"]
        result["errors"] = wl.check(inputs, outcome, workloads.load_reference())
    finally:
        wl.cleanup(inputs)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kb / 1024
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    try:
        result = measure(args)
    except Exception:  # reported to the parent as a failed repetition
        result = {"errors": [traceback.format_exc()]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
