"""Clique and independence computations on bitset graphs."""

from __future__ import annotations

from . import _kernels as K
# the pure canonical search seeds its automorphisms with the same scan
from ._kernels_py import twin_pairs
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


def _clique_masks(adj, t):
    """Every t-clique of the graph as a vertex mask, t >= 1, and inc[v],
    the bitmask over their list indices of the cliques holding v."""
    out = []
    inc = [0] * len(adj)

    def extend(clique, cand, need):
        if need == 1:
            # each candidate completes a clique
            while cand:
                b = cand & -cand
                cand ^= b
                c = clique | b
                i = 1 << len(out)
                out.append(c)
                while c:
                    v = c & -c
                    c ^= v
                    inc[v.bit_length() - 1] |= i
            return
        while cand.bit_count() >= need:
            b = cand & -cand
            cand ^= b
            extend(clique | b, cand & adj[b.bit_length() - 1], need - 1)

    extend(0, (1 << len(adj)) - 1, t)
    return out, inc


def maximal_kt_free_subsets(g: Graph, t: int, keep: int = 0) -> list[int]:
    """All inclusion-maximal vertex masks whose induced subgraph has no
    K_t and that contain the mask ``keep``, in ascending mask order.

    S is maximal K_t-free exactly when its complement is a minimal
    transversal of the t-cliques (a minimal vertex set meeting every one),
    so the t-cliques are listed as masks and their minimal transversals
    are enumerated depth-first by MMCS: K. Murakami and T. Uno, *Efficient
    algorithms for dualizing large-scale hypergraphs*, Discrete Appl. Math.
    170 (2014) 83-94.  Sets of cliques are bitmasks over the clique list:
    the uncovered ones, each vertex's incidences (built while the cliques
    are listed) and each transversal vertex's critical cliques, so a
    branch updates them with mask operations and copies no clique list.
    A branch that covers the last clique emits its set at once.  A graph
    without t-cliques yields the full mask; at t = 1 every vertex is a
    K_1, so only the empty mask is left.  Time and memory grow with the
    number of t-cliques, which is small on the K_{t+1}-free hosts the
    family extension passes.

    A set contains ``keep`` exactly when its complement avoids it, and a
    transversal T that avoids ``keep`` is minimal among all transversals
    exactly when it is minimal among those that avoid ``keep`` (T - x is
    one of them too), so the search starts with the vertices of ``keep``
    out of its candidates and finds exactly those sets.  A ``keep`` that
    holds a K_t leaves a clique with no candidate, so none.
    """
    if t < 1:
        raise GraphError(f"subset clique threshold {t} below 1")
    full = (1 << g.n) - 1
    cliques, inc = _clique_masks(g.adj, t)
    if not cliques:
        return [full]
    out = []

    # S: transversal mask so far; crit: for each vertex of S, the cliques
    # whose only S-vertex it is, each nonempty, so S is a minimal
    # transversal of the cliques it covers; uncov: the cliques S misses,
    # never empty here; cand: vertices the branch may still add.
    def rec(S, crit, uncov, cand):
        # branch on the uncovered clique with the fewest candidates: every
        # transversal extending S takes one of them; the scan stops at a
        # clique with at most one, which leaves at most one branch
        best, most = 0, t + 1
        rest = uncov
        while rest:
            i = rest & -rest
            rest ^= i
            c = cliques[i.bit_length() - 1] & cand
            k = c.bit_count()
            if k < most:
                best, most = c, k
                if k <= 1:
                    break
        cand &= ~best
        while best:
            b = best & -best
            best ^= b
            hit = inc[b.bit_length() - 1]
            crit2 = [cu & ~hit for cu in crit]
            if all(crit2):
                left = uncov & ~hit
                if left:
                    crit2.append(hit & uncov)
                    rec(S | b, crit2, left, cand)
                else:
                    out.append(full ^ S ^ b)
            # later siblings may add b: their subtrees exclude the
            # vertices branched on after them, so no set repeats
            cand |= b

    rec(0, [], (1 << len(cliques)) - 1, full & ~keep)
    out.sort()
    return out


def deficient_cover(adj, q: int):
    """Plus-K_q of a K_q-free graph h, given as ``adj``, grown by new
    vertices on maximal K_{q-1}-free sets of h, decided as a set cover.
    Returns ``(need, fixes, ends)``: one bit of ``need`` per deficient
    non-edge of h, ``fixes(M)`` the bits of those that M fixes, and
    ``ends`` the union of the deficient non-edges' ends, which every M
    that fixes them all contains.

    Lemma.  Let G be h plus r new pairwise non-adjacent vertices whose
    neighbourhoods M_1..M_r are maximal K_{q-1}-free sets of h, every two of
    them (repeats included) meeting in a set that holds a K_{q-2}.  A
    new-old non-edge of G completes a K_q, because M_j is maximal
    K_{q-1}-free; a new-new one does by the pair condition.  Call a
    non-edge xy of h deficient when N(x) & N(y) holds no K_{q-2}, and say
    M fixes it when x, y are in M and N(x) & N(y) & M holds a K_{q-3}: the
    new vertices are independent, so a K_{q-2} in the common
    neighbourhood of xy in G has at most one of them.  So G is plus-K_q
    exactly when the fixes of M_1..M_r cover the deficient non-edges.  At
    r = 1 there is no pair condition: one new vertex on a maximal
    K_{q-1}-free set M gives a plus-K_q graph exactly when ``fixes(M) ==
    need``.  At r = 0, G = h is plus-K_q exactly when ``need`` is 0.
    """
    impl = K.impl
    full = (1 << len(adj)) - 1
    deficient = []
    ends = 0
    for x, row in enumerate(adj):
        rest = ~row & full >> (x + 1) << (x + 1)
        while rest:
            b = rest & -rest
            rest ^= b
            common = row & adj[b.bit_length() - 1]
            if not impl.has_clique_within(adj, common, q - 2):
                deficient.append((1 << x | b, common))
                ends |= 1 << x | b

    def fixes(M):
        f = 0
        for bit, (pair, common) in enumerate(deficient):
            if pair & M == pair and impl.has_clique_within(adj, common & M, q - 3):
                f |= 1 << bit
        return f

    return (1 << len(deficient)) - 1, fixes, ends

