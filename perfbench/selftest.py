"""Checks of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's default test run: they
build the compiled backend and run every workload, about three minutes on a
2-core x86-64 machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

EXACT_UNITS = ("count",)


def bench(*args, cwd=ROOT, timeout=600):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_traced = {}


def traced(workload, seed=0):
    if workload not in _traced:
        _traced[workload] = result_of(bench("--workload", workload, "--seed", str(seed), "--trace", "1"))
    return _traced[workload]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced_run(workload):
    # run.py fails the run when the traced output differs from the untraced one
    res = traced(workload)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    assert res["metrics"]["trace.wrapper_ns"]["value"] > 0


def test_exact_counts_repeat():
    first = traced("descent")
    second = result_of(bench("--workload", "descent", "--seed", "0", "--trace", "1"))
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] in EXACT_UNITS}
    assert counts == again
    assert counts["search.descent.nodes"] > counts["search.descent.pruned.plus_clique"] > 0
    assert first["metrics"]["search.descent.new_frac"] == second["metrics"]["search.descent.new_frac"]


def extension_digest(pure: bool, seed: int):
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]\n"
        "import bench_build, workloads\n"
        f"if not {pure}: bench_build.ensure_built(); bench_build.use_compiled_build()\n"
        "import folkman\n"
        "ext = workloads.WORKLOADS['extension']\n"
        f"out = ext.run(ext.setup({seed}), 1)\n"
        "print(json.dumps([folkman.backend_name(), out.size(), out.digest()]))\n"
    )
    env = dict(os.environ)
    env.pop("FOLKMAN_PURE", None)
    if pure:
        env["FOLKMAN_PURE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=900
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_extension_reference_agrees_across_backends():
    ref = workloads.load_reference()["extension"]
    seed = ref["default_seed"]
    want = [ref["default_classes"], ref["default_sha256"]]
    assert extension_digest(pure=False, seed=seed) == ["compiled", *want]
    assert extension_digest(pure=True, seed=seed) == ["python", *want]


def test_failed_check_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("*.so"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    ref_file = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_file.read_text())
    ref["pipeline"]["pinned_rows"]["H(6; 9; 12)"][2] += 1
    ref_file.write_text(json.dumps(ref))
    res = result_of(bench("--workload", "pipeline", "--seconds", "1", cwd=tmp_path))
    assert not res["correct"] and res["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    proc = bench("--workload", "descent", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
