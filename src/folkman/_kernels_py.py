"""Bitset kernels: clique search, free-partition search, canonical labeling.

Pure-Python reference implementation.  ``_kernels_cy`` is its compiled
twin, a hand-written C port with one function per function here, and has to
return exactly what this module returns, including tie-breaking and witness
choices; tests/test_kernels.py compares the two on random inputs.  The one
real difference in how they work: the compiled twin writes a leaf's code as
bytes in ``graphs.edge_code``'s bit order (first bit in the top bit of the
first byte), where this module compares the integers ``edge_code`` returns.
(Its ``free_partition`` also reads the tried empty limits off the classes,
as the same set, instead of keeping a list.)

A graph arrives as a sequence ``adj`` of per-vertex neighbour bitmasks over
vertex indices 0..n-1 (symmetric, no loops, n <= 64).  Vertex subsets are
plain int masks.
"""

from __future__ import annotations

from .graphs import edge_code

BACKEND = "python"

# Automorphisms recorded during canonical labeling are used only for search
# pruning, so capping the store is safe.  The compiled twin uses the same cap.
MAX_AUT_GENERATORS = 4096

# has_clique_within(adj, mask, t) with |mask| - t at most this many takes the
# cover branch.  Timed against the colouring branch-and-bound, the branch
# was faster at every |mask| - t from 0 to 4 on the plus-clique tests of the
# pipeline and exhaustive workloads (2-8x) and at every value up to 5 on
# random masks of 8-40 vertices at densities 0.3-0.97; at 7 it lost on
# masks of 24-40 vertices at density 0.9.
COVER_MAX = 5


def twin_pairs(adj) -> list[int]:
    """For each vertex, the bit of the vertex just before it in its twin
    class, or 0 for the first member of a class.

    Twins have equal open neighbourhoods N(x) = N(y) (then they are not
    adjacent) or equal closed ones N[x] = N[y] (then they are), so swapping
    two twins is an automorphism.  Both relations are equivalences, and no
    vertex x lies in a nontrivial class of both: N(x) = N(y) and
    N[x] = N[z] give z ~ x, so z ~ y, so y lies in N[z] = N[x] and in
    N(x) = N(y), a loop.  Nor does an open key N(w) equal a closed key
    N[v]: w ~ v would put w in N[v] = N(w).  So one dict over both keys
    finds every class in one pass.

    The swaps generate the product of the symmetric groups on the classes,
    a subgroup of the automorphism group.  A vertex set is the first of its
    orbit under it exactly when it meets every class in a prefix; an edge
    is the first of its orbit exactly when each endpoint is the first of
    its class or has the other endpoint as its preceding twin.  So a test
    that commutes with automorphisms gives every dropped child of a graph
    the verdict and the canonical line of a kept sibling.
    """
    last = {}
    out = []
    for v, row in enumerate(adj):
        closed = row | 1 << v
        out.append(last.get(row) or last.get(closed) or 0)
        last[row] = last[closed] = 1 << v
    return out


def _color_bounds(adj, P):
    # Greedy-colour the candidate mask P into independent classes.  Returns
    # (vertices, bounds) where bounds is nondecreasing and bounds[i] is an
    # upper bound on the largest clique inside P restricted to
    # vertices[:i + 1].
    order = []
    bounds = []
    rest = P
    color = 0
    while rest:
        color += 1
        avail = rest
        while avail:
            bit = avail & -avail
            v = bit.bit_length() - 1
            order.append(v)
            bounds.append(color)
            rest ^= bit
            avail = (avail ^ bit) & ~adj[v]
    return order, bounds


def _clique_search(adj, mask, best, stop):
    # Colouring branch-and-bound: the clique number of the subgraph induced
    # on mask if above best, else best.  It ends once best reaches stop, and
    # expand returns True when it has.
    def expand(P, size):
        nonlocal best
        order, bounds = _color_bounds(adj, P)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return False
            v = order[i]
            if size + 1 > best:
                best = size + 1
                if best >= stop:
                    return True
            sub = P & adj[v]
            if sub and expand(sub, size + 1):
                return True
            P ^= 1 << v
        return False

    expand(mask, 0)
    return best


def max_clique_size_within(adj, mask):
    """Clique number of the subgraph induced on the vertex mask."""
    return _clique_search(adj, mask, 0, mask.bit_count())


def max_clique_size(adj):
    return max_clique_size_within(adj, (1 << len(adj)) - 1)


def _clique_after_drops(adj, mask, k):
    # Whether dropping at most k vertices of mask leaves a clique: a vertex
    # cover of at most k in the complement on mask.  A vertex with a
    # non-neighbour in mask goes, or all its non-neighbours do; when it has
    # just one, dropping that one instead of it loses nothing.
    m = mask
    while m:
        b = m & -m
        m ^= b
        miss = mask & ~adj[b.bit_length() - 1] ^ b
        if miss:
            if not k:
                return False
            if not miss & (miss - 1):
                return _clique_after_drops(adj, mask ^ miss, k - 1)
            if _clique_after_drops(adj, mask ^ b, k - 1):
                return True
            c = miss.bit_count()
            return c <= k and _clique_after_drops(adj, mask ^ miss, k - c)
    return True


def has_clique_within(adj, mask, t):
    """True iff the subgraph induced on mask contains a t-clique."""
    if t <= 0:
        return True
    if t == 1:
        return mask != 0
    if t == 2:
        m = mask
        while m:
            b = m & -m
            m ^= b
            if adj[b.bit_length() - 1] & mask:
                return True
        return False
    k = mask.bit_count() - t
    if k < 0:
        return False
    if k <= COVER_MAX:
        return _clique_after_drops(adj, mask, k)
    return _clique_search(adj, mask, t - 1, t) >= t


def has_clique_at_least(adj, t):
    return has_clique_within(adj, (1 << len(adj)) - 1, t)


def is_plus_k(adj, t):
    """True iff adding any missing edge creates a new t-clique."""
    if t <= 2:
        return True
    n = len(adj)
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            if not (au >> v) & 1:
                if not has_clique_within(adj, au & adj[v], t - 2):
                    return False
    return True


def free_partition(adj, limits):
    """Partition the vertices into len(limits) classes with the clique number
    of class i at most limits[i].  Returns a tuple of class masks, or None
    when no such partition exists.  Deterministic: vertices are placed in
    order of decreasing degree (ties by index) and classes are tried left to
    right, skipping repeated empty classes with equal limits."""
    n = len(adj)
    s = len(limits)
    if n == 0:
        return (0,) * s
    if s == 0:
        return None
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    classes = [0] * s

    def place(i):
        if i == n:
            return True
        v = order[i]
        av = adj[v]
        bit = 1 << v
        tried_empty = []
        for c in range(s):
            cur = classes[c]
            if cur == 0:
                if limits[c] in tried_empty:
                    continue
                tried_empty.append(limits[c])
            if has_clique_within(adj, cur & av, limits[c]):
                continue
            classes[c] = cur | bit
            if place(i + 1):
                return True
            classes[c] = cur
        return False

    if place(0):
        return tuple(classes)
    return None


def _refine(adj, cells, fresh, twins):
    # Equitable refinement of an ordered partition (list of cell masks).
    # The scan takes splitters W and cells C in position order, W outer; the
    # first C that W splits is replaced in place by its fragments ordered by
    # neighbour count in W.  All choices depend only on the partition
    # structure, which keeps the outcome isomorphism-invariant.
    #
    # twins[v] is the mask of v's twin class.  Twins in one cell see every
    # cell alike (open twins have one neighbourhood; closed twins differ
    # only in each other, and lie in one cell together), so the count in W
    # is taken once per twin class inside C.
    #
    # fresh is the union of the cells not yet verified as splitters.  A
    # splitter scanned against every cell without a split stays stable
    # against every later cell, each being a subset of a current one, so
    # only fresh cells are scanned, and the scan restarts after every
    # split.  A discrete partition (n cells) has nothing left to split.
    cells = list(cells)
    n = len(adj)
    nc = len(cells)
    wi = 0
    while wi < nc < n:
        W = cells[wi]
        wi += 1
        if not W & fresh:
            continue
        single = not W & (W - 1)
        if single:
            aw = adj[W.bit_length() - 1]
        for ci, C in enumerate(cells):
            if not C & (C - 1):
                continue
            if single:
                # counts are 0 or 1: non-neighbours first, then neighbours
                hit = C & aw
                if not hit or hit == C:
                    continue
                frags = [C ^ hit, hit]
            else:
                groups = {}
                m = C
                while m:
                    v = (m & -m).bit_length() - 1
                    same = C & twins[v]
                    m ^= same
                    k = (adj[v] & W).bit_count()
                    groups[k] = groups.get(k, 0) | same
                if len(groups) == 1:
                    continue
                frags = [groups[k] for k in sorted(groups)]
            cells[ci : ci + 1] = frags
            nc += len(frags) - 1
            fresh |= C
            wi = 0
            break
        else:
            fresh &= ~W
    return cells


def canonical_perm(adj):
    """Permutation p (position -> original vertex) whose relabeling minimises
    the upper-triangle adjacency encoding.  Complete isomorphism invariant:
    two graphs get equal canonical encodings iff they are isomorphic.

    A target cell inside one twin class (see ``twin_pairs``) is split into
    singletons in one step, in ascending order, as the level-by-level search
    would reach them on its first branch at each level:

    * a vertex outside a twin class sees all of it or none, and its members
      see each other alike; so individualizing a member splits no other
      cell, and the rest of the class stays the unique smallest cell;
    * every sibling on those levels is the image of the first branch under
      a twin swap that fixes the path, which the search prunes;
    * a jump back into the collapsed levels returns to the collapsing node,
      because those levels have no live sibling.

    So the search refines nothing there and stands, with the same path and
    fixed vertices, where the level-by-level one would.
    """
    n = len(adj)
    if n <= 1:
        return tuple(range(n))
    full = (1 << n) - 1

    best_code = 0
    best_perm = None
    best_path = ()
    path = []  # the vertex bits individualized on the way to the current node
    # Each known automorphism as (mask of the vertices it moves, pairs
    # (u, g(u)) over those vertices): the twin swaps from the start, then
    # those found at leaves.  A branch skipped by either kind is the image
    # of an earlier one, so the first leaf with the least code, and the
    # permutation returned, do not depend on which are known.
    generators = []
    # twins[v] is the mask of v's twin class, first gathered on its first
    # member
    twins = [1 << v for v in range(n)]
    first = list(range(n))
    for v, p in enumerate(twin_pairs(adj)):
        if p:
            u = p.bit_length() - 1
            generators.append((p | 1 << v, ((u, v), (v, u))))
            first[v] = first[u]
            twins[first[v]] |= 1 << v
    twins = [twins[f] for f in first]

    def leaf(cells):
        # Returns the depth to go back to.  A leaf whose code equals the
        # best one is the image of the best leaf under an automorphism that
        # fixes their common path prefix and maps the best path's next
        # vertex to this path's; what is left of this subtree is then the
        # image of part of the one already explored below the best path's
        # vertex, so the search resumes at the deepest common ancestor.
        nonlocal best_code, best_perm, best_path
        perm = tuple([c.bit_length() - 1 for c in cells])
        code = edge_code(adj, perm)
        if best_perm is None or code < best_code:
            best_code = code
            best_perm = perm
            best_path = tuple(path)
            return len(path)
        if code > best_code:
            return len(path)
        if len(generators) < MAX_AUT_GENERATORS:
            moved = 0
            pairs = []
            for u, w in zip(best_perm, perm):
                if u != w:
                    moved |= 1 << u
                    pairs.append((u, w))
            generators.append((moved, pairs))
        common = 0
        for u, w in zip(best_path, path):
            if u != w:
                break
            common += 1
        return common

    def search(cells, fixed):
        # Returns the depth to go back to: at least this node's own depth
        # when its subtree is done, less when a leaf below asks to jump
        # higher.  A target cell inside one twin class is split in place and
        # the path extended by the levels it stands for; the caller cuts the
        # path back.
        while True:
            ti = -1
            size = 65
            for i, c in enumerate(cells):
                pc = c.bit_count()
                if 1 < pc < size:
                    ti = i
                    size = pc
            if ti < 0:
                return leaf(cells)
            T = cells[ti]
            if T & ~twins[(T & -T).bit_length() - 1]:
                break
            ones = []
            m = T
            while m:
                b = m & -m
                m ^= b
                ones.append(b)
            cells[ti : ti + 1] = ones
            path.extend(ones[:-1])
            fixed |= T ^ ones[-1]
        depth = len(path)
        tried = 0
        # orbit[v] is the orbit of v, as a mask, under the recorded
        # automorphisms that fix the individualized prefix pointwise; seen
        # counts the generators already folded in.
        orbit = None
        seen = 0
        m = T
        while m:
            b = m & -m
            m ^= b
            if tried and generators:
                if orbit is None:
                    orbit = [1 << v for v in range(n)]
                for moved, pairs in generators[seen:]:
                    if moved & fixed:
                        continue
                    for u, w in pairs:
                        ou = orbit[u]
                        ow = orbit[w]
                        if ou != ow:
                            union = ou | ow
                            x = union
                            while x:
                                y = x & -x
                                x ^= y
                                orbit[y.bit_length() - 1] = union
                seen = len(generators)
                if orbit[b.bit_length() - 1] & tried:
                    tried |= b
                    continue
            child = cells[:ti] + [b, T ^ b] + cells[ti + 1 :]
            path.append(b)
            back = search(_refine(adj, child, T, twins), fixed | b)
            del path[depth:]
            if back < depth:
                return back
            tried |= b
        return depth

    search(_refine(adj, [full], full, twins), 0)
    return best_perm
