import importlib.util
import random
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest
from hypothesis import strategies as st

from folkman import _kernels, _kernels_py
from folkman.graphs import Graph, GraphError, bits_of

KERNELS_C = Path(_kernels.__file__).with_name("_kernels_cy.c")


def available_backends():
    """The kernel modules that import, by name: the pure twin always, the
    compiled one when it is installed or built for the test session."""
    out = {"python": _kernels_py}
    try:
        from folkman import _kernels_cy

        out["compiled"] = _kernels_cy
    except ImportError:
        pass
    return out


class _BuiltKernelsFinder:
    """Resolves ``folkman._kernels_cy`` to a shared object built for the
    test session."""

    def __init__(self, path):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name != "folkman._kernels_cy":
            return None
        return importlib.util.spec_from_file_location(name, self.path)


def pytest_configure(config):
    # Without an installed compiled backend, build one from the shipped C
    # source so the parity tests run.  ``_kernels`` was imported above and
    # has already chosen its backend, so the default stays the same; the
    # build is reachable through ``available_backends()`` only.
    if "compiled" in available_backends():
        return
    cc = shutil.which("cc")
    if cc is None or not KERNELS_C.is_file():
        return
    build = Path(tempfile.mkdtemp(prefix="folkman-kernels-"))
    config.add_cleanup(lambda: shutil.rmtree(build, ignore_errors=True))
    so = build / ("_kernels_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [
        cc, "-O2", "-shared", "-fPIC",
        "-I" + sysconfig.get_paths()["include"],
        str(KERNELS_C), "-o", str(so),
    ]
    error = None
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if out.returncode:
            error = f"cc exited {out.returncode}: {out.stderr[-2000:]}"
    except (OSError, subprocess.TimeoutExpired) as exc:
        error = str(exc)
    if error is not None:
        config.issue_config_time_warning(
            pytest.PytestConfigWarning("compiled kernels not built: " + error), 2
        )
        return
    finder = _BuiltKernelsFinder(so)
    sys.meta_path.insert(0, finder)
    config.add_cleanup(lambda: sys.meta_path.remove(finder))


@pytest.fixture(autouse=True)
def _restore_kernel_backend():
    # Tests may swap or reload the backend; later tests keep the default.
    impl = _kernels.impl
    yield
    _kernels.impl = impl


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def from_edges(n: int, edges) -> Graph:
    """The graph on 0..n-1 with the given edges, through Graph's checks."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool((g.adj[u] >> v) & 1)


def degree(g: Graph, v: int) -> int:
    return g.adj[v].bit_count()


def edge_count(g: Graph) -> int:
    return sum(row.bit_count() for row in g.adj) // 2


def non_edges(g: Graph):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not has_edge(g, u, v):
                yield (u, v)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """g with its non-edge uv added."""
    assert u != v and not has_edge(g, u, v)
    return from_edges(g.n, [*g.edges(), (u, v)])


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    """g with its edge uv removed."""
    assert has_edge(g, u, v)
    return from_edges(g.n, [e for e in g.edges() if set(e) != {u, v}])


def induced(g: Graph, mask: int) -> Graph:
    """Subgraph induced on a vertex mask, relabeled to 0..k-1 in ascending
    original-index order."""
    if mask < 0 or mask >> g.n:
        raise GraphError(f"vertex set {bin(mask)} outside universe 0..{g.n - 1}")
    keep = list(bits_of(mask))
    pos = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for i, v in enumerate(keep):
        for u in bits_of(g.adj[v] & mask):
            adj[i] |= 1 << pos[u]
    return Graph(len(keep), adj)


def delete_vertices(g: Graph, mask: int) -> Graph:
    # a mask outside the universe stays outside it, so induced() rejects it
    return induced(g, g.full_mask() ^ mask)


def cone_vertex_mask(g: Graph) -> int:
    """The vertices adjacent to all other vertices, as a mask."""
    full = g.full_mask()
    m = 0
    for v in range(g.n):
        if g.adj[v] | (1 << v) == full:
            m |= 1 << v
    return m


def cone_vertex_count(g: Graph) -> int:
    """Vertices adjacent to all other vertices."""
    return cone_vertex_mask(g).bit_count()


def strip_cone_vertices(g: Graph) -> Graph:
    return delete_vertices(g, cone_vertex_mask(g))


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, adj)


def complete_less_matching(n):
    """K_n less the perfect matching {i, i + n/2}, n even."""
    return from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if j != i + n // 2]
    )


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


def random_permuted(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


@pytest.fixture
def rng():
    return random.Random(0x5EED)
