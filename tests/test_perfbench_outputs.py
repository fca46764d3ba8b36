"""The outputs the benchmark pins must keep matching its reference: each
workload is run through ``perfbench/workloads.py`` itself, loaded read-only,
on a cut-down input, and checked by its own ``check``.  Each runs on every
backend that imports, whichever backend its benchmark run pins.  Everything
it writes goes under ``tmp_path``."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from folkman import _kernels
from tests.conftest import available_backends

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
backends = pytest.mark.parametrize("backend", sorted(available_backends()))


def _use(backend):
    # the autouse fixture restores the default backend
    _kernels.impl = available_backends()[backend]


@backends
@pytest.mark.parametrize("workers", [1, 2])
def test_pipeline_artifacts_match_the_pinned_reference(tmp_path, workers, backend):
    _use(backend)
    wl = workloads.WORKLOADS["pipeline"]
    shutil.copyfile(workloads.PIPELINE_CONFIG, tmp_path / workloads.PIPELINE_CONFIG.name)
    outcome = wl.run(tmp_path, workers)
    pinned = reference["pipeline"]["artifacts"]
    assert workloads.artifact_digests(tmp_path / "out") == pinned, workers
    assert wl.check(tmp_path, outcome, reference) == [], workers


@backends
def test_exhaustive_output_matches_the_pinned_reference(backend):
    _use(backend)
    wl = workloads.WORKLOADS["exhaustive"]
    assert wl.check(None, wl.run(None, 1), reference) == []


@backends
def test_extension_of_the_first_seed_0_hosts_matches_the_pinned_table(backend):
    _use(backend)
    wl = workloads.WORKLOADS["extension"]
    hosts = wl.setup(0)[:40]
    outcome = wl.run(hosts, 1)
    assert outcome.lines
    assert wl.check(hosts, outcome, reference) == []


@backends
def test_descent_of_the_seed_0_input_matches_the_pinned_reference(backend):
    _use(backend)
    wl = workloads.WORKLOADS["descent"]
    maximals = wl.setup(0)
    assert wl.check(maximals, wl.run(maximals, 1), reference) == []
