"""Kernel backend selection.

The compiled extension is preferred; the pure-Python twin is the fallback.
Set FOLKMAN_PURE=1 to force the fallback.  Modules call through ``impl`` so
tests and benchmarks can swap backends at runtime.
"""

import os

from . import _kernels_py

if os.environ.get("FOLKMAN_PURE"):
    impl = _kernels_py
else:
    try:
        from . import _kernels_cy as impl  # type: ignore[no-redef]
    except ImportError:
        impl = _kernels_py


def backend_name():
    return impl.BACKEND

