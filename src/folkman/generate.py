"""Exhaustive isomorph-free generation of small graphs.

Level-by-level vertex extension with canonical-form rejection: every class
on k+1 vertices arises from a class on k vertices by attaching one vertex
with some neighbourhood, so extending every class by every neighbourhood and
deduplicating is complete.  ``bounded_classes`` prunes each level to clique
number below q and independence number at most t, both hereditary, so the
pruning loses no class; ``graph_classes`` is the same scheme with bounds no
graph of the order reaches.

This is desk-scale machinery: it seeds the small base families that the
extension chains start from and serves as the brute-force oracle in tests.
"""

from __future__ import annotations

from . import _kernels as K
from .arrowing import arrows
from .canon import GraphSet, canonical_line
from .cliques import complement_adj, is_plus_kt
from .graphs import Graph, GraphError, bits_of


def graph_classes(n: int) -> list[Graph]:
    """All isomorphism classes on exactly n vertices, canonically labeled."""
    return bounded_classes(n, n + 2, n + 1)


def bounded_classes(n: int, q: int, t: int) -> list[Graph]:
    """All classes on n vertices with clique number below q and independence
    number at most t, canonically labeled.  The per-child test is local to
    the attached vertex: a new K_q needs a K_{q-1} in its neighbourhood, a
    new independent (t+1)-set needs t independent non-neighbours."""
    if n < 0:
        raise GraphError("negative vertex count")
    if q < 2 or t < 1:
        return []
    if n == 0:
        return [Graph.empty(0)]
    impl = K.impl
    level = [Graph.empty(1)]
    for _ in range(n - 1):
        out = GraphSet()
        for g in level:
            k = g.n
            bit = 1 << k
            full = bit - 1
            cadj = complement_adj(g.adj)
            for nb in range(1 << k):
                if impl.has_clique_within(g.adj, nb, q - 1):
                    continue
                if impl.has_clique_within(cadj, full ^ nb, t):
                    continue
                adj = list(g.adj)
                adj.append(nb)
                for v in bits_of(nb):
                    adj[v] |= bit
                out.insert_canonical(canonical_line(adj))
        level = out.graphs()
    return level


def ramsey_graphs(k: int, l: int, n: int) -> list[Graph]:
    """Classes on n vertices with no K_k and no independent set of size l."""
    return bounded_classes(n, k, l - 1)


def maximal_family_exhaustive(avec, q: int, n: int, t: int) -> GraphSet:
    """Brute-force construction of the edge-maximal members of
    H(avec; q; n) with independence number at most t.

    Levels are pruned to clique number below q and independence number at
    most t (both hereditary); the arrowing and maximality filters apply on
    the final level only.
    """
    entries = tuple(avec)
    out = GraphSet()
    for g in bounded_classes(n, q, t):
        if is_plus_kt(g, q) and arrows(g, entries):
            out.insert(g)
    return out
