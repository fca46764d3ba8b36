"""Exhaustive isomorph-free generation of small graphs.

Level-by-level vertex extension with canonical-form rejection: every class
on k+1 vertices arises from a class on k vertices by attaching one vertex
with some neighbourhood, and the per-level set of canonical lines is the
exact isomorph rejection.  A child is made only where the new vertex could
be its canonical parent's deleted vertex (McKay's test, invariant half):
it must have the largest degree of the child and, among the child's
vertices of that degree, the largest neighbour-degree sum, ties kept.  Both
tests read tables of the parent and a few mask operations per
neighbourhood, before any kernel call.  A neighbourhood is then tried only
when it meets every twin class of the parent (the kernel ``twin_pairs``)
in a prefix, one per orbit of the parent's twin swaps: a swap maps the
child onto an isomorphic sibling, and the invariant and bound tests
commute with it.  Levels travel as adjacencies keyed by canonical line, so
no level is decoded again.

Lemma (completeness).  Let C be a class on k+1 vertices with clique number
below q and independence number at most t, and w a vertex of C with the
largest (degree, neighbour-degree sum), compared in that order.  Both
bounds are hereditary, so C - w is a class of level k, and attaching w back
to its canonical copy passes both invariant tests: no vertex of C beats w.
So ``bounded_classes`` loses no class.

``maximal_family_exhaustive`` makes its last level with the extension
kernel at r = 1: ``extension_lines`` of each parent attaches one vertex on
each maximal K_{q-1}-free set that holds a K_{q-2}, fixes every deficient
non-edge of the parent (the cover lemma of ``_kernels_py._deficient_cover``)
and keeps the independence number at most t.  Every such child is
edge-maximal, so none is tested for it, and only the children that arrow
are labeled.

Lemma (maximal).  Let G be an edge-maximal member on n >= q vertices and
w any vertex of G.  G - w is a class of level n - 1 (the bounds are
hereditary).  N(w) is a maximal K_{q-1}-free set of G - w: it holds no
K_{q-1}, as G has no K_q, and for a non-neighbour x of w the edge wx
makes a K_q, so N(w) + x holds a K_{q-1}.  N(w) holds a K_{q-2}: if w has
a non-neighbour z, in N(w) & N(z); if not, G, not complete, has a
non-edge xy away from w, N(x) & N(y) holds a K_{q-2} K, and K, or
K - w + x when w is in K, lies in N(w).  G is plus-K_q, so N(w) fixes
every deficient non-edge of G - w (the cover lemma at r = 1), and an
independent set of G - w - N(w) plus w is one of G, so the residue test
passes too.  So no class is lost.  Below q vertices the only
edge-maximal K_q-free graph is K_n.

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
from .arrowing import arrows_adj, canonicalize, clique_arrows
from .canon import GraphSet, canonical_line
from .cliques import complement_adj
from .graphs import Graph, GraphError, attach, bits_of, from_graph6


def _children(level, q: int, t: int):
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
    plus its neighbours in the neighbourhood, plus the new vertex's degree."""
    impl = K.impl
    for adj in level:
        k = len(adj)
        full = (1 << k) - 1
        # (v, its preceding twin) as bits: nb is tried only when it meets
        # every twin class in a prefix
        pairs = [(1 << v, p) for v, p in enumerate(impl.twin_pairs(adj)) if p]
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
        for nb in range(full + 1):
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
            if impl.has_clique_within(adj, nb, q - 1):
                continue
            if impl.has_clique_within(cadj, full ^ nb, t):
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
    level (the repeats lemma above), one ``extension_lines`` call at r = 1
    per parent (the maximal lemma above).  Every child it makes holds a
    K_{q-1}, so the vector goes to the kernel only when a K_{q-1} may not
    arrow it.  Below q vertices the answer is K_n when it arrows.
    """
    if n < 0:
        raise GraphError("negative vertex count")
    out = GraphSet()
    if q < 2 or t < 1:
        return out
    entries = canonicalize(avec).entries
    if n < q:
        adj = Graph.complete(n).adj
        if arrows_adj(adj, entries):
            out.insert_canonical(canonical_line(adj))
        return out
    vec = () if clique_arrows(entries, q - 1) else entries
    impl = K.impl
    for adj in _children(_level(n - 2, q, t).values(), q, t):
        for line in impl.extension_lines(adj, vec, q, 1, t):
            out.insert_canonical(line)
    return out
