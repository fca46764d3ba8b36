"""Exhaustive isomorph-free generation of small graphs.

Level-by-level vertex extension with canonical-form rejection: every class
on k+1 vertices arises from a class on k vertices by attaching one vertex
with some neighbourhood, and the per-level set of canonical lines is the
exact isomorph rejection.  A child is made only where the new vertex could
be its canonical parent's deleted vertex (McKay's test, invariant half):
it must have the largest degree of the child and, among the child's
vertices of that degree, the largest neighbour-degree sum, ties kept.  Both
tests read tables of the parent and a few mask operations per
neighbourhood, before any kernel call.  On the levels a neighbourhood is
then tried only when it meets every twin class of the parent
(``cliques.twin_pairs``) in a prefix, one per orbit of the parent's twin
swaps: a swap maps the child onto an isomorphic sibling, and the invariant
and bound tests commute with it.  Levels travel as adjacencies keyed by
canonical line, so no level is decoded again.

Lemma (completeness).  Let C be a class on k+1 vertices with clique number
below q and independence number at most t, and w a vertex of C with the
largest (degree, neighbour-degree sum), compared in that order.  Both
bounds are hereditary, so C - w is a class of level k, and attaching w back
to its canonical copy passes both invariant tests: no vertex of C beats w.
So ``bounded_classes`` loses no class.

``maximal_family_exhaustive`` builds its last level from the same child
loop, but gives the new vertex only maximal K_{q-1}-free sets M that fix
every deficient non-edge of the parent (``cliques.deficient_cover``):
exactly the neighbourhoods that leave the child edge-maximal, so no child
is tested for it.  Only the children that also arrow are labeled.

Lemma (ends).  M fixes a deficient non-edge xy only if x and y are in M,
so M contains the union ``ends`` of the deficient non-edges' ends.  A
parent whose ``ends`` holds a K_{q-1} has no such M and no child.  Only
the maximal K_{q-1}-free sets that contain ``ends`` are listed
(``maximal_kt_free_subsets`` with ``keep = ends``, none for such a
parent).

Lemma (twins).  Let M, a maximal K_{q-1}-free set of the K_q-free parent
holding ``ends``, pass the degree test: every vertex of M has degree below
|M|.  Let y be in M and x a twin of y outside M.  If N(x) = N(y), M + x
holds x plus a K_{q-2} K of M & N(y), so y plus K is a K_{q-1} in M.  If
N[x] = N[y], x is in N(y) - M and deg(y) < |M|, so some z in M lies
outside N[y] = N[x]; x is not in ``ends``, so N(x) & N(z) holds a K_{q-2},
which misses y, a non-neighbour of z, and makes a K_q with x and y.  So M
is a union of twin classes, and the last level runs no twin test.

Lemma (repeats).  The last level's parents, level n - 1, are not labeled
or deduplicated: they stream from the child loop of level n - 2, which
yields every class of level n - 1 at least once (the completeness lemma)
and some more than once.  Each test of the last level commutes with
relabeling the parent, so a repeated parent yields children of the same
classes again, and the output set, keyed by canonical line, keeps each
class once.  A repeat costs its work, never a class.

This is desk-scale machinery: it seeds the small base families that the
extension chains start from, and the tests check it against the
brute-force ``tests/oracles.py::maximal_family_reference``.
"""

from __future__ import annotations

from . import _kernels as K
from .arrowing import arrows_adj, canonicalize
from .canon import GraphSet, canonical_line
from .cliques import complement_adj, deficient_cover, twin_pairs
from .graphs import Graph, GraphError, attach, bits_of, from_graph6


def _children(level, q: int, t: int, maximal=False):
    """Adjacency tuples (``graphs.attach``) of every adjacency of ``level``
    with one vertex attached by every neighbourhood that keeps clique number
    below q and independence number at most t, and gives the new vertex the
    largest degree of the child and, among the child's vertices of that
    degree, the largest neighbour-degree sum (ties kept), one neighbourhood
    per orbit of the parent's twin swaps.  The bound tests are local to the
    attached vertex: a new K_q needs a K_{q-1} in its neighbourhood, a new
    independent (t+1)-set needs t independent non-neighbours.  The two
    invariant tests are McKay's canonical parent, invariant half: see the
    completeness lemma above.  In the child a neighbour x of the new vertex
    gains one degree, so x's neighbour-degree sum there is the parent's,
    plus its neighbours in the neighbourhood, plus the new vertex's degree.

    Under ``maximal`` only the edge-maximal K_q-free children are made: the
    neighbourhoods are the maximal K_{q-1}-free sets of the parent that fix
    every deficient non-edge (``cliques.deficient_cover`` at r = 1).  In an
    edge-maximal K_q-free graph every vertex's neighbourhood is a maximal
    K_{q-1}-free set of the graph less that vertex, so no class is lost.
    The cover comes first: by the ends lemma above, only the sets that
    contain the deficient non-edges' ends are listed, none when the ends
    hold a K_{q-1}.  The parent's tables are built only when a set is
    left.  No twin test is run there (the twins lemma above)."""
    impl = K.impl
    for adj in level:
        k = len(adj)
        full = (1 << k) - 1
        if maximal:
            need, fixes, ends = deficient_cover(adj, q)
            masks = impl.maximal_kt_free_subsets(adj, q - 1, ends)
            if not masks:
                continue
            pairs = ()
        else:
            masks = range(full + 1)
            # (v, its preceding twin) as bits: nb is tried only when it
            # meets every twin class in a prefix
            pairs = [(1 << v, p) for v, p in enumerate(twin_pairs(adj)) if p]
        cadj = complement_adj(adj)
        # at_least[d]: vertices of degree >= d, as suffix unions of the
        # degree classes; nds[x]: the degree sum of x's neighbours
        at_least = [0] * (k + 2)
        nds = [0] * k
        for v, row in enumerate(adj):
            d = row.bit_count()
            at_least[d] |= 1 << v
            while row:
                b = row & -row
                row ^= b
                nds[b.bit_length() - 1] += d
        for d in range(k - 1, -1, -1):
            at_least[d] |= at_least[d + 1]
        for nb in masks:
            # in the child a neighbour gains one, the new vertex has degree s
            s = nb.bit_count()
            if at_least[s] & nb or at_least[s + 1] & ~nb:
                continue
            if pairs and any(nb & b and not nb & p for b, p in pairs):
                continue
            # the child's other vertices of degree s: neighbours of degree
            # s - 1 and non-neighbours of degree s (at s = 0 there is no
            # neighbour, and at_least[-1] is the empty at_least[k + 1])
            peers = at_least[s - 1] & nb | at_least[s] & ~nb
            if peers:
                # the new vertex's neighbour-degree sum: its neighbours'
                # degrees, below s, counted once per d, plus one each
                mine = s + sum((nb & at_least[d]).bit_count() for d in range(1, s))
                if any(
                    nds[x] + (adj[x] & nb).bit_count() + (s if nb >> x & 1 else 0) > mine
                    for x in bits_of(peers)
                ):
                    continue
            # a maximal K_{q-1}-free set holds no K_{q-1}
            if not maximal and impl.has_clique_within(adj, nb, q - 1):
                continue
            if impl.has_clique_within(cadj, full ^ nb, t):
                continue
            if maximal and fixes(nb) != need:
                continue
            yield attach(adj, (nb,))


def _level(n: int, q: int, t: int) -> dict:
    """One adjacency per class on n vertices with clique number below q and
    independence number at most t, as the child loop built it, keyed by
    its canonical line."""
    if n < 0:
        raise GraphError("negative vertex count")
    if q < 2 or t < 1:
        return {}
    level = {canonical_line(()): ()}
    for _ in range(n):
        out = {}
        for adj in _children(level.values(), q, t):
            out.setdefault(canonical_line(adj), adj)
        level = out
    return level


def bounded_classes(n: int, q: int, t: int) -> list[Graph]:
    """All classes on n vertices with clique number below q and independence
    number at most t, canonically labeled, in canonical line order."""
    return [from_graph6(line) for line in sorted(_level(n, q, t))]


def maximal_family_exhaustive(avec, q: int, n: int, t: int) -> GraphSet:
    """Exhaustive construction of the edge-maximal members of
    H(avec; q; n) with independence number at most t.

    The levels below n - 1 are those of ``bounded_classes``.  Level n - 1
    is not labeled: the children of level n - 2 go straight to the last
    level (the repeats lemma above), at n = 1 the 0-vertex graph.  The last
    level is ``_children`` under ``maximal`` (at n = 0 the 0-vertex graph,
    with no non-edge): every child is edge-maximal by construction, and it
    is labeled only if it arrows.
    """
    if n < 0:
        raise GraphError("negative vertex count")
    entries = canonicalize(avec).entries
    level = _level(max(n - 2, 0), q, t).values()
    if n > 1:
        level = _children(level, q, t)
    if n > 0:
        level = _children(level, q, t, maximal=True)
    out = GraphSet()
    for adj in level:
        if arrows_adj(adj, entries):
            out.insert_canonical(canonical_line(adj))
    return out
