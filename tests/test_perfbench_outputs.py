"""The outputs the benchmark pins must keep matching its reference: each
workload is run through ``perfbench/workloads.py`` itself, loaded read-only,
on a cut-down input, and checked by its own ``check``.  Everything it writes
goes under ``tmp_path``."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is written next to the benchmark's files
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()
reference = workloads.load_reference()


@pytest.mark.parametrize("workers", [1, 2])
def test_pipeline_artifacts_match_the_pinned_reference(tmp_path, workers):
    wl = workloads.WORKLOADS["pipeline"]
    shutil.copyfile(workloads.PIPELINE_CONFIG, tmp_path / workloads.PIPELINE_CONFIG.name)
    outcome = wl.run(tmp_path, workers)
    pinned = reference["pipeline"]["artifacts"]
    assert workloads.artifact_digests(tmp_path / "out") == pinned, workers
    assert wl.check(tmp_path, outcome, reference) == [], workers


def test_exhaustive_output_matches_the_pinned_reference():
    wl = workloads.WORKLOADS["exhaustive"]
    assert wl.check(None, wl.run(None, 1), reference) == []


def test_extension_of_the_first_seed_0_hosts_matches_the_pinned_table():
    wl = workloads.WORKLOADS["extension"]
    hosts = wl.setup(0)[:40]
    outcome = wl.run(hosts, 1)
    assert outcome.lines
    assert wl.check(hosts, outcome, reference) == []


def test_descent_of_the_seed_0_input_matches_the_pinned_reference():
    wl = workloads.WORKLOADS["descent"]
    maximals = wl.setup(0)
    assert wl.check(maximals, wl.run(maximals, 1), reference) == []
