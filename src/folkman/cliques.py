"""Clique and independence computations on bitset graphs."""

from __future__ import annotations

from . import _kernels as K
from .graphs import Graph, GraphError, complement_adj


def clique_number(g: Graph) -> int:
    return K.impl.max_clique_size(g.adj)


def independence_number(g: Graph) -> int:
    return K.impl.max_clique_size(complement_adj(g.adj))


def has_clique(g: Graph, t: int) -> bool:
    """True iff the clique number is at least t; short-circuits."""
    if t < 0:
        raise GraphError(f"clique size {t} negative")
    return K.impl.has_clique_at_least(g.adj, t)


def is_plus_kt(g: Graph, t: int) -> bool:
    """True iff every missing edge would create a new t-clique (vacuously
    true for complete graphs)."""
    if t < 2:
        raise GraphError(f"plus-clique threshold {t} below 2")
    return K.impl.is_plus_k(g.adj, t)


def maximal_kt_free_subsets(g: Graph, t: int, keep: int = 0) -> list[int]:
    """All inclusion-maximal vertex masks whose induced subgraph has no
    K_t and that contain the mask ``keep``, in ascending mask order: the
    kernel ``maximal_kt_free_subsets`` (MMCS over the t-cliques; the pure
    twin's docstring states it)."""
    if t < 1:
        raise GraphError(f"subset clique threshold {t} below 1")
    return K.impl.maximal_kt_free_subsets(g.adj, t, keep)

