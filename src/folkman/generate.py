"""Exhaustive isomorph-free generation of small graphs.

Level-by-level vertex extension with canonical-form rejection: every class
on k+1 vertices arises from a class on k vertices by attaching one vertex
of largest degree with some neighbourhood, so extending every class by every
neighbourhood that makes the new vertex a largest-degree one (McKay's
canonical-parent test, invariant half) and deduplicating is complete.  The
degree test is two mask tests per neighbourhood, made before any kernel call.
A neighbourhood is then tried only when it meets every twin class of the
parent (``cliques.twin_pairs``) in a prefix, one per orbit of the parent's
twin swaps: a swap maps the child onto an isomorphic sibling, and the degree,
bound and maximality tests commute with it.  The per-level set of canonical
lines stays the exact isomorph rejection.
``bounded_classes`` prunes each level to clique number below q and
independence number at most t, both hereditary, so neither the pruning nor
the degree test loses a class.  ``maximal_family_exhaustive`` builds
its final level from the same child loop, but gives the new vertex only
maximal K_{q-1}-free sets that fix every deficient non-edge of the parent
(``cliques.deficient_cover``): exactly the neighbourhoods that leave the
child edge-maximal, so no child is tested for it.  Only the children that
also arrow are labeled.

This is desk-scale machinery: it seeds the small base families that the
extension chains start from, and the tests check it against the
brute-force ``tests/oracles.py::maximal_family_reference``.
"""

from __future__ import annotations

from . import _kernels as K
from .arrowing import arrows_adj, canonicalize
from .canon import GraphSet, canonical_line
from .cliques import (
    complement_adj,
    deficient_cover,
    maximal_kt_free_subsets,
    twin_pairs,
)
from .graphs import Graph, GraphError, attach


def _children(level, q: int, t: int, maximal=False):
    """Adjacency tuples (``graphs.attach``) of every graph of ``level`` with
    one vertex attached by every neighbourhood that keeps clique number
    below q and independence number at most t and gives the new vertex the
    largest degree of the child (ties kept), one neighbourhood per orbit of
    the graph's twin swaps.  The bound tests are local to the attached
    vertex: a new K_q needs a K_{q-1} in its neighbourhood, a new
    independent (t+1)-set needs t independent non-neighbours.  The degree test is the
    invariant half of McKay's canonical parent: the child less a vertex of
    largest degree lies in ``level``, so the class is still reached.

    Under ``maximal`` only the edge-maximal K_q-free children are made: the
    neighbourhoods are the maximal K_{q-1}-free sets of the graph that fix
    every deficient non-edge (``cliques.deficient_cover`` at r = 1).  In an
    edge-maximal K_q-free graph every vertex's neighbourhood is a maximal
    K_{q-1}-free set of the graph less that vertex, so no class is lost."""
    impl = K.impl
    for g in level:
        k = g.n
        bit = 1 << k
        full = bit - 1
        cadj = complement_adj(g.adj)
        # at_least[d]: vertices of degree >= d in g
        at_least = [0] * (k + 2)
        for v, row in enumerate(g.adj):
            for d in range(row.bit_count() + 1):
                at_least[d] |= 1 << v
        # (v, its preceding twin) as bits: nb is tried only when it meets
        # every twin class in a prefix
        pairs = [(1 << v, p) for v, p in enumerate(twin_pairs(g.adj)) if p]
        if maximal:
            masks = maximal_kt_free_subsets(g, q - 1)
            need, fixes = deficient_cover(g.adj, q)
        else:
            masks = range(bit)
        for nb in masks:
            # in the child a neighbour gains one, the new vertex has degree s
            s = nb.bit_count()
            if at_least[s] & nb or at_least[s + 1] & ~nb:
                continue
            if any(nb & b and not nb & p for b, p in pairs):
                continue
            # a maximal K_{q-1}-free set holds no K_{q-1}
            if not maximal and impl.has_clique_within(g.adj, nb, q - 1):
                continue
            if impl.has_clique_within(cadj, full ^ nb, t):
                continue
            if maximal and fixes(nb) != need:
                continue
            yield attach(g.adj, (nb,))


def bounded_classes(n: int, q: int, t: int) -> list[Graph]:
    """All classes on n vertices with clique number below q and independence
    number at most t, canonically labeled."""
    if n < 0:
        raise GraphError("negative vertex count")
    if q < 2 or t < 1:
        return []
    if n == 0:
        return [Graph.empty(0)]
    level = [Graph.empty(1)]
    for _ in range(n - 1):
        out = GraphSet()
        for adj in _children(level, q, t):
            out.insert_canonical(canonical_line(adj))
        level = list(out)
    return level


def maximal_family_exhaustive(avec, q: int, n: int, t: int) -> GraphSet:
    """Exhaustive construction of the edge-maximal members of
    H(avec; q; n) with independence number at most t.

    The levels below n are ``bounded_classes``.  The final level is
    ``_children`` of level n - 1 under ``maximal``: every child is
    edge-maximal by construction, and it is labeled only if it arrows.
    """
    entries = canonicalize(avec).entries
    if n == 0:
        candidates = (g.adj for g in bounded_classes(0, q, t) if K.impl.is_plus_k(g.adj, q))
    else:
        candidates = _children(bounded_classes(n - 1, q, t), q, t, maximal=True)
    out = GraphSet()
    for adj in candidates:
        if arrows_adj(adj, entries):
            out.insert_canonical(canonical_line(adj))
    return out
