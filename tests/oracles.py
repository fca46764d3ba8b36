"""Brute-force reference implementations the tests check against.

Everything here works straight from the definitions (subset enumeration and
exhaustive colourings) and stays independent of the search code paths under
test, except these, which call the engine's kernels or canonical labeling:

* ``maximal_ktfree_recursive`` calls the clique kernel;
* ``maximal_family_reference`` is the exhaustive family construction as it
  stood before its final level was filtered ahead of canonical labeling
  and then built from maximal K_{q-1}-free neighbourhoods by the cover
  lemma: every class of ``bounded_classes`` is tested with ``is_plus_k``.
  It shares no cover code with ``maximal_family_exhaustive`` or
  ``valid_multisets``, so the tests compare both extensions with it;
* ``bounded_classes_reference`` is the level loop of ``bounded_classes`` as
  it stood before it kept only children whose new vertex has the largest
  degree and whose neighbourhood is the first of its twin-swap orbit:
  every class is extended by every neighbourhood and the canonical lines
  alone reject isomorphs;
* ``plus_clique_descent_reference`` is the plus-clique descent as it stood
  before the canonical-parent rule on the removed edge and the one edge
  per twin-swap orbit: every child that passes the family tests is
  labeled and deduplicated;
* ``descent_worker_reference`` is the descent worker as it stood before
  it tested re-addability only where the key rule reads it and skipped the
  arrowing test that holding a K_{q-2} decides: every non-edge of the
  class is tested for re-addability up front and every child that passes
  the plus-clique and independence tests for arrowing.  The worker must
  return its children, child adjacencies and dead masks exactly;
* ``valid_multisets_reference`` is the extension's multiset search as it
  stood before plus-K_q was decided as a cover inside it: every multiset
  that passes the pair and residue conditions is extended and tested with
  ``is_plus_k``;
* ``canonical_perm_reference`` is the canonical labeling search as it stood
  before its refinement and orbit bookkeeping were made incremental: the
  kernels must return its permutation exactly;
* ``coned_outputs_reference`` is the cone split's recovery of its coned
  outputs as it stood before they were attached: a seed is stripped of its
  cone vertex and joined to r + 1 independent vertices, a cone seed joined
  to K_1;
* ``graph_classes``, ``ramsey_graphs``, ``has_independent_set``,
  ``edge_completes_new_clique``, ``is_maximal_kq_free`` and
  ``arrows_after_deletion`` are small helpers the engine does not use;
  the tests state laws with them.
"""

from itertools import combinations, product

from folkman import _kernels as K
from folkman._kernels_py import MAX_AUT_GENERATORS, twin_pairs
from folkman.arrowing import ArrowVector, arrows, arrows_adj
from folkman.canon import GraphSet, canonical_line
from folkman.cliques import (
    complement_adj,
    has_clique,
    is_plus_kt,
    maximal_kt_free_subsets,
)
from folkman.generate import bounded_classes
from folkman.graphs import Graph, GraphError, bits_of, join
from folkman.search import attach_vertices
from tests.conftest import (
    cone_vertex_count,
    delete_vertices,
    has_edge,
    mask_of,
    remove_edge,
    strip_cone_vertices,
)


def clique_number_brute(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(has_edge(g, u, v) for u, v in combinations(sub, 2)):
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
        if all(has_edge(g, u, v) for u, v in combinations(sub, 2)):
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


def graph_classes(n: int) -> list[Graph]:
    """All isomorphism classes on exactly n vertices, canonically labeled:
    ``bounded_classes`` with bounds no graph of the order reaches."""
    return bounded_classes(n, n + 2, n + 1)


def has_independent_set(g: Graph, t: int) -> bool:
    if t < 0:
        raise GraphError(f"independent set size {t} negative")
    return K.impl.has_clique_at_least(complement_adj(g.adj), t)


def ramsey_graphs(k: int, l: int, n: int) -> list[Graph]:
    """Classes on n vertices with no K_k and no independent set of size l."""
    return bounded_classes(n, k, l - 1)


def edge_completes_new_clique(g: Graph, u: int, v: int, t: int) -> bool:
    """Would adding the missing edge [u, v] create a new t-clique?"""
    if u == v:
        raise GraphError(f"loop [{u}, {v}]")
    if has_edge(g, u, v):
        raise GraphError(f"edge [{u}, {v}] already present")
    return K.impl.has_clique_within(g.adj, g.adj[u] & g.adj[v], t - 2)


def is_maximal_kq_free(g: Graph, q: int) -> bool:
    """Maximality within the K_q-free world: no edge can be added without
    raising the clique number to q.  Requires clique number below q."""
    if has_clique(g, q):
        raise GraphError(f"clique number is not below {q}")
    return is_plus_kt(g, q)


def arrows_after_deletion(g: Graph, v, i: int, vertices) -> bool:
    """Arrowing of g minus an independent set against the vector with entry
    i lowered by one."""
    entries = list(ArrowVector(tuple(v)).entries)
    if not 0 <= i < len(entries):
        raise GraphError(f"entry index {i} out of range")
    if entries[i] < 2:
        raise GraphError(f"entry {entries[i]} cannot be decremented")
    mask = mask_of(vertices)
    rest = delete_vertices(g, mask)
    for u in bits_of(mask):
        if g.adj[u] & mask:
            raise GraphError("deleted set is not independent")
    entries[i] -= 1
    return arrows(rest, tuple(entries))


def maximal_family_reference(avec, q: int, n: int, t: int) -> GraphSet:
    """Edge-maximal members of H(avec; q; n) with independence number at
    most t: every class of ``bounded_classes(n, q, t)`` filtered by the
    plus-clique test and arrowing after it is canonically labeled."""
    out = GraphSet()
    for g in bounded_classes(n, q, t):
        if is_plus_kt(g, q) and arrows(g, tuple(avec)):
            out.insert(g)
    return out


def bounded_classes_reference(n: int, q: int, t: int) -> list[Graph]:
    """Classes on n vertices with clique number below q and independence
    number at most t: each level extended by every neighbourhood that keeps
    both bounds, deduplicated by canonical line only."""
    if q < 2 or t < 1:
        return []
    if n == 0:
        return [Graph.empty(0)]
    impl = K.impl
    level = [Graph.empty(1)]
    for _ in range(n - 1):
        out = GraphSet()
        for g in level:
            bit = 1 << g.n
            cadj = complement_adj(g.adj)
            for nb in range(bit):
                if impl.has_clique_within(g.adj, nb, q - 1):
                    continue
                if impl.has_clique_within(cadj, (bit - 1) ^ nb, t):
                    continue
                adj = list(g.adj) + [nb]
                for v in bits_of(nb):
                    adj[v] |= bit
                out.insert_canonical(canonical_line(adj))
        level = list(out)
    return level


def plus_clique_descent_reference(maximals, avec, q: int, t: int) -> GraphSet:
    """Every graph reached from ``maximals`` by removing edges one at a time
    while staying K_q-free with independence number at most t, arrowing
    ``avec`` and having each missing edge complete a new (q-1)-clique; one
    per isomorphism class.  Every such child is labeled."""
    out = GraphSet()
    todo = [g for g in maximals if is_plus_kt(g, q - 1)]
    for g in todo:
        out.insert(g)
    while todo:
        g = todo.pop()
        for u, v in g.edges():
            child = remove_edge(g, u, v)
            if (
                is_plus_kt(child, q - 1)
                and not has_independent_set(child, t + 1)
                and arrows(child, tuple(avec))
                and out.insert(child)
            ):
                todo.append(child)
    return out


def _orbit_rows(adj):
    """For each vertex u, the mask of the v > u such that uv is the first
    edge of its orbit under the twin swaps of ``adj`` (see twin_pairs):
    u is the first of its twin class and v is the first of its own or the
    next twin of u."""
    twin = twin_pairs(adj)
    later = 0
    after = [0] * len(adj)
    for v, p in enumerate(twin):
        if p:
            later |= 1 << v
            after[p.bit_length() - 1] = 1 << v
    return [
        0 if p else (row >> (u + 1) << (u + 1) & ~later) | (after[u] & row)
        for u, (row, p) in enumerate(zip(adj, twin))
    ]


def descent_worker_reference(entries, q, t, task):
    """The children of the class ``task = (adj, dead)`` in (entries; q; t):
    sorted (canonical line, child task) pairs, one per child class, each
    adjacency as built here.  dead[x] has bit y when removing the edge xy
    failed a family test in this class or an ancestor; such an edge is not
    tried, and every child carries the class's final dead masks."""
    adj, dead = task
    dead = list(dead)
    n = len(adj)
    impl = K.impl
    cadj = complement_adj(adj)
    deg = [row.bit_count() for row in adj]
    # Canonical parent (McKay, invariant half): C = P - uv is kept only if
    # no re-addable non-edge of C has a larger key than uv.  A non-edge xy
    # is re-addable when its common neighbourhood holds no K_{q-2}, so that
    # C + xy is a family member one layer up; key(x, y) is (common
    # neighbours, degree sum) in C, packed into one int (degree sums stay
    # below 1 << 7 on 64 vertices).  Each class is still reached: from the
    # class of C + xy for its largest-key xy.  P's non-edges are listed
    # once, largest key first.  (Bits are iterated inline here and in the
    # edge loop below: a generator costs more than the work per bit.)
    gaps = []
    full = (1 << n) - 1
    for x in range(n):
        ax, dx = adj[x], deg[x]
        rest = ~ax & full >> (x + 1) << (x + 1)
        while rest:
            b = rest & -rest
            rest ^= b
            y = b.bit_length() - 1
            gaps.append(((ax & adj[y]).bit_count() << 7 | (dx + deg[y]), x, y))
    gaps.sort(reverse=True)
    readd = [
        (k, 1 << x | 1 << y)
        for k, x, y in gaps
        if not impl.has_clique_within(adj, adj[x] & adj[y], q - 2)
    ]
    children = {}
    for u, row in enumerate(_orbit_rows(adj)):
        row &= ~dead[u]
        bu = 1 << u
        while row:
            bv = row & -row
            row ^= bv
            v = bv.bit_length() - 1
            uv = bu | bv
            key = (adj[u] & adj[v]).bit_count() << 7 | (deg[u] + deg[v] - 2)
            # A re-addable non-edge of P away from u and v stays one in C
            # with the same key.
            outranked = False
            for k, pair in readd:
                if k <= key:
                    break
                if not pair & uv:
                    outranked = True
                    break
            if outranked:
                continue
            child = list(adj)
            child[u] &= ~bv
            child[v] &= ~bu
            # The family tests, plus-clique (the most selective) first.
            # Independence cap: a new independent (t+1)-set must contain
            # both endpoints, i.e. a (t-1)-clique in their common complement
            # neighbourhood.  That mask avoids u and v, and a clique search
            # inside a mask reads only the rows of its vertices, which the
            # child's complement shares with the parent's.  Losing an edge
            # only shrinks common neighbourhoods, keeps independent sets and
            # cannot make a graph arrow, so a failure carries down to every
            # subgraph: the child is dropped before it is labeled and uv is
            # dead in the whole subtree.  The key rule's rejections do not
            # carry down and mark nothing.
            if (
                not impl.is_plus_k(child, q - 1)
                or impl.has_clique_within(cadj, cadj[u] & cadj[v], t - 1)
                or not arrows_adj(child, entries)
            ):
                dead[u] |= bv
                dead[v] |= bu
                continue
            # The rest of the rule: non-edges at u or v lose v or u from
            # the common neighbourhood and one from the degree sum, and
            # those with u and v both in the common neighbourhood lose the
            # edge uv inside it.  Keys only fall, so P's order bounds the
            # scan.
            for k, x, y in gaps:
                if k <= key:
                    break
                common = child[x] & child[y]
                if x == u or x == v or y == u or y == v:
                    if (common.bit_count() << 7 | (k & 127) - 1) <= key:
                        continue
                elif common & uv != uv:
                    continue
                if not impl.has_clique_within(child, common, q - 2):
                    outranked = True
                    break
            if not outranked:
                children.setdefault(canonical_line(child), tuple(child))
    dead = tuple(dead)
    return [(line, (child, dead)) for line, child in sorted(children.items())]


def valid_multisets_reference(h: Graph, q: int, r: int, t: int):
    """``valid_multisets`` as it stood before it decided plus-K_q as a
    cover of the host's deficient non-edges: the pair and residue search
    over every candidate, then ``is_plus_k`` on each extended graph."""
    subsets = maximal_kt_free_subsets(h, q - 1)
    impl = K.impl
    adj = h.adj
    full = h.full_mask()
    cadj = complement_adj(adj)
    alpha_rest = {}

    def rest_ok(union, k):
        got = alpha_rest.get(union)
        if got is None:
            got = impl.max_clique_size_within(cadj, full & ~union)
            alpha_rest[union] = got
        return got <= t - k

    cand = [
        i
        for i, M in enumerate(subsets)
        if impl.has_clique_within(adj, M, q - 2) and rest_ok(M, 1)
    ]
    pair_ok = {}

    def compatible(i, j):
        key = (i, j) if i <= j else (j, i)
        got = pair_ok.get(key)
        if got is None:
            got = impl.has_clique_within(adj, subsets[i] & subsets[j], q - 2)
            pair_ok[key] = got
        return got

    out = []
    chosen = []

    def rec(start):
        d = len(chosen)
        if d == r:
            out.append(tuple(subsets[i] for i in chosen))
            return
        for pos in range(start, len(cand)):
            i = cand[pos]
            if any(not compatible(j, i) for j in chosen):
                continue
            ok = True
            for sub in range(1 << d):
                union = subsets[i]
                k = 1
                rest = sub
                while rest:
                    b = rest & -rest
                    rest ^= b
                    union |= subsets[chosen[b.bit_length() - 1]]
                    k += 1
                if not rest_ok(union, k):
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(i)
            rec(pos)
            chosen.pop()

    rec(0)
    return [
        masks for masks in out if impl.is_plus_k(attach_vertices(h, masks).adj, q)
    ]


def twin_classes_brute(g: Graph) -> list[list[int]]:
    """The nontrivial classes of vertices whose transposition is an
    automorphism (equal neighbourhoods once the pair itself is ignored),
    as ascending vertex lists: a vertex joins the first class all of whose
    members it can be swapped with."""

    def swappable(u, v):
        other = ~(1 << u | 1 << v)
        return g.adj[u] & other == g.adj[v] & other

    classes = []
    for v in range(g.n):
        for cls in classes:
            if all(swappable(u, v) for u in cls):
                cls.append(v)
                break
        else:
            classes.append([v])
    return [cls for cls in classes if len(cls) > 1]


def twin_swap_edge_orbits(g: Graph) -> list[set[tuple[int, int]]]:
    """The orbits of the edges of g under the group generated by the
    transpositions within the classes of ``twin_classes_brute``."""
    parent = {e: e for e in g.edges()}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for cls in twin_classes_brute(g):
        for a, b in combinations(cls, 2):
            swap = {a: b, b: a}
            for u, v in g.edges():
                x, y = sorted((swap.get(u, u), swap.get(v, v)))
                parent[find((u, v))] = find((x, y))
    orbits = {}
    for e in parent:
        orbits.setdefault(find(e), set()).add(e)
    return list(orbits.values())


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


def _reference_encode(adj, perm):
    # Upper-triangle bits of the relabeled graph, column-major, packed
    # MSB-first; lexicographic byte order equals bit order, and the bit
    # sequence is the graph6 edge stream.
    n = len(perm)
    out = bytearray((n * (n - 1) // 2 + 7) // 8)
    k = 0
    for j in range(1, n):
        aj = adj[perm[j]]
        for i in range(j):
            if (aj >> perm[i]) & 1:
                out[k >> 3] |= 0x80 >> (k & 7)
            k += 1
    return bytes(out)


def _reference_refine(adj, cells):
    # Equitable refinement of an ordered partition (list of cell masks).
    # On a split the cell is replaced in place by its fragments ordered by
    # neighbour count; the scan restarts.  All choices depend only on the
    # partition structure, which keeps the outcome isomorphism-invariant.
    cells = list(cells)
    while True:
        stable = True
        for W in cells:
            for ci in range(len(cells)):
                C = cells[ci]
                if C.bit_count() <= 1:
                    continue
                groups = {}
                m = C
                while m:
                    b = m & -m
                    m ^= b
                    k = (adj[b.bit_length() - 1] & W).bit_count()
                    groups[k] = groups.get(k, 0) | b
                if len(groups) > 1:
                    cells[ci : ci + 1] = [groups[k] for k in sorted(groups)]
                    stable = False
                    break
            if not stable:
                break
        if stable:
            return cells


def _reference_same_orbit(generators, fixed, tried, v, n):
    # Is v in the orbit of some vertex of the tried mask under the subgroup
    # of recorded automorphisms that fix the individualized prefix pointwise?
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        ok = True
        f = fixed
        while f:
            b = f & -f
            f ^= b
            u = b.bit_length() - 1
            if g[u] != u:
                ok = False
                break
        if not ok:
            continue
        for u in range(n):
            ru, rv = find(u), find(g[u])
            if ru != rv:
                parent[ru] = rv
    rv = find(v)
    m = tried
    while m:
        b = m & -m
        m ^= b
        if find(b.bit_length() - 1) == rv:
            return True
    return False


def canonical_perm_reference(adj):
    """Permutation p (position -> original vertex) whose relabeling minimises
    the upper-triangle adjacency encoding.  Complete isomorphism invariant:
    two graphs get equal canonical encodings iff they are isomorphic."""
    n = len(adj)
    if n <= 1:
        return tuple(range(n))
    full = (1 << n) - 1

    best = {"code": None, "perm": None}
    generators = []

    def leaf(cells):
        perm = tuple(c.bit_length() - 1 for c in cells)
        code = _reference_encode(adj, perm)
        if best["code"] is None or code < best["code"]:
            best["code"] = code
            best["perm"] = perm
        elif code == best["code"] and len(generators) < MAX_AUT_GENERATORS:
            bp = best["perm"]
            g = [0] * n
            for i in range(n):
                g[bp[i]] = perm[i]
            generators.append(tuple(g))

    def search(cells, fixed):
        ti = -1
        size = 65
        for i, c in enumerate(cells):
            pc = c.bit_count()
            if 1 < pc < size:
                ti = i
                size = pc
        if ti < 0:
            leaf(cells)
            return
        T = cells[ti]
        tried = 0
        m = T
        while m:
            b = m & -m
            m ^= b
            if tried and generators and _reference_same_orbit(
                generators, fixed, tried, b.bit_length() - 1, n
            ):
                tried |= b
                continue
            child = cells[:ti] + [b, T ^ b] + cells[ti + 1 :]
            search(_reference_refine(adj, child), fixed | b)
            tried |= b

    search(_reference_refine(adj, [full]), 0)
    return best["perm"]


def relabel_reference(g: Graph, perm) -> Graph:
    """g with position i taking the role of old vertex perm[i], by the loop
    ``Graph.relabel`` ran before it read through the graph6 encoder."""
    pos = [0] * g.n
    for i, v in enumerate(perm):
        pos[v] = i
    adj = [0] * g.n
    for i, v in enumerate(perm):
        for u in bits_of(g.adj[v]):
            adj[i] |= 1 << pos[u]
    return Graph(g.n, adj)


def coned_outputs_reference(spec, seeds, cone_seeds) -> GraphSet:
    """The coned outputs of ``generate_family_cone_split``: under t > r,
    every seed with exactly one cone vertex that arrows the target, that
    vertex stripped and the rest joined to r + 1 independent vertices; and
    K_1 joined to every cone seed with independence number at least r,
    when the join arrows."""
    entries = spec.avec.entries
    out = GraphSet()
    if spec.t > spec.r:
        for w in seeds:
            if cone_vertex_count(w) == 1 and arrows(w, entries):
                out.insert(join(Graph.empty(spec.r + 1), strip_cone_vertices(w)))
    for h in cone_seeds:
        if has_independent_set(h, spec.r):
            g = join(Graph.complete(1), h)
            if arrows(g, entries):
                out.insert(g)
    return out
