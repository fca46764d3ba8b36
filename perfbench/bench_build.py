"""Compiled kernel backend for the benchmark, built without Cython.

The package ships the Cython output ``src/folkman/_kernels_cy.c``.  This
module compiles it with the system C compiler into ``perfbench/_build``,
a directory private to the benchmark, and lets a process import the result
as ``folkman._kernels_cy`` through a meta-path finder.  The source tree is
never written to.  A stamp next to the shared object records the hashes it
was built from, so a changed ``.c`` or compiler triggers a rebuild.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PKG = SRC / "folkman"
BUILD_DIR = HERE / "_build"
MODULE = "folkman._kernels_cy"
COMPILER = "cc"


class BuildError(RuntimeError):
    pass


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compiler_version() -> str:
    try:
        out = subprocess.run(
            [COMPILER, "--version"], capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BuildError(f"C compiler not usable: {exc}") from exc
    if out.returncode != 0 or not out.stdout:
        raise BuildError(f"C compiler not usable: {out.stderr.strip()}")
    return out.stdout.splitlines()[0].strip()


def source_info() -> dict:
    """Hashes of the kernel sources and the compiler that builds them."""
    c_file = PKG / "_kernels_cy.c"
    pyx_file = PKG / "_kernels_cy.pyx"
    if not c_file.is_file() or not pyx_file.is_file():
        raise BuildError(f"kernel sources missing under {PKG}")
    return {
        "c_sha256": sha256_of(c_file),
        "pyx_sha256": sha256_of(pyx_file),
        "compiler": compiler_version(),
        "python": sys.version.split()[0],
    }


def shared_object() -> Path:
    return BUILD_DIR / ("_kernels_cy" + sysconfig.get_config_var("EXT_SUFFIX"))


def ensure_built() -> dict:
    """Build the extension unless a matching build exists; return the
    source info it was built from."""
    info = source_info()
    so = shared_object()
    stamp = BUILD_DIR / "stamp.json"
    if so.is_file() and stamp.is_file():
        try:
            if json.loads(stamp.read_text()) == info:
                return info
        except ValueError:
            pass
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    tmp = so.with_name(so.name + f".{os.getpid()}.tmp")
    cmd = [
        COMPILER,
        "-O2",
        "-shared",
        "-fPIC",
        "-I" + sysconfig.get_paths()["include"],
        str(PKG / "_kernels_cy.c"),
        "-o",
        str(tmp),
    ]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except (OSError, subprocess.TimeoutExpired) as exc:
        tmp.unlink(missing_ok=True)
        raise BuildError(f"compile failed: {exc}") from exc
    if out.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise BuildError("compile failed:\n" + out.stderr[-4000:])
    os.replace(tmp, so)
    stamp.write_text(json.dumps(info, indent=1, sort_keys=True) + "\n")
    return info


class _CompiledKernelFinder:
    """Resolves ``folkman._kernels_cy`` to the benchmark's own build."""

    def __init__(self, path: Path):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name != MODULE:
            return None
        return importlib.util.spec_from_file_location(name, self.path)


def use_compiled_build() -> None:
    """Make the next ``import folkman`` pick up the benchmark's build.
    Call before folkman is imported."""
    so = shared_object()
    if not so.is_file():
        raise BuildError(f"no compiled build at {so}")
    sys.meta_path.insert(0, _CompiledKernelFinder(so))
