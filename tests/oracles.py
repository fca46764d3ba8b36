"""Brute-force reference implementations the tests check against.

Everything here works straight from the definitions (subset enumeration and
exhaustive colourings) and stays independent of the search code paths under
test, except ``maximal_ktfree_recursive``, which calls the clique kernel.
"""

from itertools import combinations, product

from folkman import _kernels as K
from folkman.graphs import Graph, bits_of


def clique_number_brute(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return best


def has_mono_clique(g: Graph, mask: int, size: int) -> bool:
    if size <= 0:
        return True
    vertices = list(bits_of(mask))
    if size == 1:
        return bool(vertices)
    if size == 2:
        return any(g.adj[v] & mask for v in vertices)
    for sub in combinations(vertices, size):
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
            return True
    return False


def arrows_brute(g: Graph, entries) -> bool:
    """Exhaustive check over all s^n colourings."""
    s = len(entries)
    if s == 0:
        return True
    for colouring in product(range(s), repeat=g.n):
        masks = [0] * s
        for v, c in enumerate(colouring):
            masks[c] |= 1 << v
        if not any(
            has_mono_clique(g, mask, a) for mask, a in zip(masks, entries)
        ):
            return False
    return True


def maximal_ktfree_brute(g: Graph, t: int) -> list[int]:
    """All maximal K_t-free vertex masks by scanning every subset."""
    full = (1 << g.n) - 1
    free = [
        mask
        for mask in range(full + 1)
        if not has_mono_clique(g, mask, t)
    ]
    free_set = set(free)
    out = []
    for mask in free:
        if any(
            (mask | (1 << v)) in free_set
            for v in range(g.n)
            if not (mask >> v) & 1
        ):
            continue
        out.append(mask)
    return sorted(out)


def maximal_ktfree_recursive(g: Graph, t: int) -> list[int]:
    """All maximal K_t-free vertex masks by include/exclude recursion over
    the vertices, about 2^n nodes: fast enough where scanning every subset
    is not.

    X holds excluded vertices that could still be added (vertices blocked
    by the growing set are dropped for good, which is safe because blocking
    is monotone), so a leaf is maximal exactly when X is empty.
    """
    n = g.n
    adj = g.adj
    impl = K.impl
    out = []

    def addable(S, v):
        return not impl.has_clique_within(adj, adj[v] & S, t - 1)

    def rec(S, X, i):
        if i == n:
            if X == 0:
                out.append(S)
            return
        bit = 1 << i
        if addable(S, i):
            S2 = S | bit
            X2 = 0
            for v in bits_of(X):
                if addable(S2, v):
                    X2 |= 1 << v
            rec(S2, X2, i + 1)
            rec(S, X | bit, i + 1)
        else:
            rec(S, X, i + 1)

    rec(0, 0, 0)
    return sorted(out)
