"""The names ``perfbench/tracer.py`` wraps must keep resolving: the
benchmark patches them by name, so a rename in the package breaks it."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tests.conftest import available_backends

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # no bytecode cache is written next to the benchmark's files
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()


def _resolve(modname, attr):
    """What ``Tracer._patch`` wraps: a method from its class ``__dict__``,
    any other name from its module."""
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        raw = vars(getattr(module, cls_name))[meth]
        return raw.__func__ if isinstance(raw, classmethod) else raw
    return getattr(module, attr)


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_traced_kernels_resolve(backend):
    kernels = available_backends()[backend]
    for name in tracer.KERNELS:
        assert callable(getattr(kernels, name, None)), (backend, name)


def test_traced_functions_resolve():
    names = [(m, a) for _, m, a, _, _ in tracer.FUNCTIONS]
    names += [(m, a) for _, m, a in tracer.COARSE]
    broken = []
    for modname, attr in names:
        try:
            if not callable(_resolve(modname, attr)):
                broken.append((modname, attr))
        except (AttributeError, KeyError):
            broken.append((modname, attr))
    assert not broken
