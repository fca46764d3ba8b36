"""Bitset kernels: clique search, free-partition search and arrowing,
canonical labeling and canonical graph6 lines, graph6 decoding
(``graph6_adj`` and ``cone_count``), the plus-clique descent's
child loop (``descent_children``, whose docstring and comments are the one
statement of the descent's key rule) and the family extension's host loop
(``maximal_kt_free_subsets``, the deficient cover, ``valid_multisets`` and
``extension_lines``, whose docstrings state the cover lemma and the
multiset search).

Pure-Python reference implementation.  ``_kernels_cy`` is its compiled
twin, a hand-written C port with one function per function here and the
same public names, and has to return exactly what this module returns,
including tie-breaking and witness choices; tests/test_kernels.py compares
the two on random inputs.  The one real difference in how they work: the
compiled twin writes a leaf's code as bytes in ``graphs.edge_code``'s bit
order (first bit in the top bit of the first byte), where this module
compares the integers ``edge_code`` returns, and writes a canonical line
from those bytes.  The compiled graph6 decoders only accept or reject a
line: on a line or argument they reject they call the twin here, so each
error, message and offset, is written once, in ``graphs.unpack_graph6``.

Kernels call each other directly, not through ``_kernels.impl``, so a
proxy on ``impl`` sees only the calls made from outside the kernels.

A graph arrives as a graph6 line or as a sequence ``adj`` of per-vertex
neighbour bitmasks over vertex indices 0..n-1 (symmetric, no loops,
n <= 64).  Vertex subsets are plain int masks.
"""

from __future__ import annotations

from .graphs import adj_to_graph6, attach, complement_adj, edge_code, unpack_graph6

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
        for c in range(s):
            cur = classes[c]
            # an empty class before c with c's limit was tried, and the
            # classes before c are back as they were
            if not cur and any(not classes[e] and limits[e] == limits[c] for e in range(c)):
                continue
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


def arrows(adj, entries) -> bool:
    """True iff every colouring of the vertices in len(entries) colours
    puts a clique of size entries[i] in some colour class i; ``entries`` is
    canonical (sorted, every entry at least 2).  Decided as: no free
    partition with the clique number of class i below entries[i]."""
    if not entries:
        return True
    if len(entries) == 1:
        return has_clique_at_least(adj, entries[0])
    p = entries[-1]
    m = sum(a - 1 for a in entries) + 1
    # A graph without a p-clique never arrows (put everything in the p-class);
    # a graph with an m-clique always does.
    if not has_clique_at_least(adj, p):
        return False
    if has_clique_at_least(adj, m):
        return True
    return free_partition(adj, tuple(a - 1 for a in entries)) is None


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


def canonical_line(adj) -> str:
    """graph6 line of the graph relabeled by ``canonical_perm``: equal lines
    exactly for isomorphic graphs."""
    return adj_to_graph6(len(adj), adj, canonical_perm(adj))


def graph6_adj(line) -> tuple:
    """The neighbour masks of the graph of a graph6 line, in the line's own
    labeling.  A malformed line raises ``unpack_graph6``'s
    Graph6ParseError; the compiled twin raises it by calling this one."""
    n, code = unpack_graph6(line)
    # edge bits run from the top in column-major upper-triangle order, so
    # in the reversed stream column j is the j bits from j(j-1)/2 up, bit i
    # standing for the edge ij
    stream = int(format(code, f"0{n * (n - 1) // 2}b")[::-1], 2)
    adj = [0] * n
    for j in range(1, n):
        col = (stream >> (j * (j - 1) // 2)) & ((1 << j) - 1)
        adj[j] = col
        bj = 1 << j
        while col:
            b = col & -col
            col ^= b
            adj[b.bit_length() - 1] |= bj
    return tuple(adj)


def cone_count(line) -> int:
    """How many vertices of the graph of a canonical line are adjacent to
    all others, with ``graph6_adj``'s errors.  Both twins' canonical_perm
    splits by degree first, in ascending order, and only in place after
    that, so a canonical labeling lists the cone vertices last.  Column j
    of the edge bits holds the edges from vertex j to the vertices before
    it, so the cone vertices are the trailing columns that are all ones."""
    n, code = unpack_graph6(line)
    for j in range(n - 1, -1, -1):
        if ~code & ((1 << j) - 1):
            return n - 1 - j
        code >>= j
    return n


def child_is_plus_k(adj, u, v, q, verdict=None):
    """True iff P - uv is plus-K_{q-1}, for an edge uv of P = ``adj``,
    given that P is plus-K_{q-1} itself (not checked): only uv and the
    non-edges of P that removing uv reaches are tested, by the lemma in
    ``descent_children``'s docstring.  ``verdict`` is a bytearray of n * n
    bytes whose byte x * n + y, x < y, reads 0 while the non-edge xy is
    untested, else 1 + whether it is re-addable in P; a 0 is tested here
    and written back, so a caller that keeps the array for P tests each
    non-edge at most once."""
    au = adj[u]
    av = adj[v]
    common = au & av
    if not has_clique_within(adj, common, q - 3):
        return False
    n = len(adj)
    if verdict is None:
        verdict = bytearray(n * n)
    bu = 1 << u
    bv = 1 << v
    child = list(adj)
    child[u] = au ^ bv
    child[v] = av ^ bu
    # (x, the y of the reached non-edges xy): u's non-neighbours in N(v),
    # v's in N(u), then the non-edges inside N(u) & N(v)
    reached = [(u, av & ~(au | bu)), (v, au & ~(av | bv))]
    m = common
    while m:
        b = m & -m
        m ^= b
        x = b.bit_length() - 1
        reached.append((x, m & ~adj[x]))
    for x, ys in reached:
        while ys:
            b = ys & -ys
            ys ^= b
            y = b.bit_length() - 1
            if _readdable(adj, n, min(x, y), max(x, y), q, verdict) and not has_clique_within(
                child, child[x] & child[y], q - 3
            ):
                return False
    return True


def _readdable(adj, n, x, y, q, verdict):
    """Whether the non-edge xy, x < y, of the n-vertex graph ``adj`` is
    re-addable (its common neighbourhood holds no K_{q-2}), read from or
    written to ``verdict[x * n + y]`` as ``child_is_plus_k`` keeps it."""
    i = x * n + y
    if not verdict[i]:
        verdict[i] = 2 if not has_clique_within(adj, adj[x] & adj[y], q - 2) else 1
    return verdict[i] == 2


def descent_children(adj, dead, entries, q, t):
    """The children of one class P of the plus-clique descent in the family
    (entries; q; independence <= t): sorted (canonical line, (child
    adjacency, dead masks)) pairs, one per child class, each adjacency as
    built here.  A child is P - uv for an edge uv of P, kept when it passes
    the three family tests (plus-K_{q-1}, independence cap, arrowing) and
    the invariant half of McKay's canonical-parent test, the key rule
    below.  ``entries`` is the canonical vector; the caller passes () when
    holding a K_{q-2}, which every kept child does (it is plus-K_{q-1} and
    its non-edge uv completes a K_{q-1}), already arrows it.

    Twin orbits.  P loses one edge per orbit of its twin swaps (see
    ``twin_pairs``): every test here commutes with automorphisms of P, so
    the other edges of an orbit give isomorphic children with the same
    verdict.

    Dead masks.  dead[x] has bit y when removing the edge xy failed a
    family test in this class or an ancestor.  The three family tests carry
    down under edge removal (if P - e fails one, so does P - uv - e), so a
    dead edge heads a subtree with no member and is not tried; an edge is
    checked against the masks after the twin-orbit choice, the orbit's
    other edges giving isomorphic, equally failing children.  Every child
    carries the class's final masks.  Only family-test failures are marked:
    the key rule's rejections depend on the whole graph and are retried in
    every child.

    Lazy re-addability.  P's non-edges are sorted by key once, and one is
    tested for re-addability (at most once) only when the rule of some edge
    reaches it, its key being above that edge's.  The non-edges that keep
    their key and verdict from P are checked before the family tests, the
    others after, so only children that enter the result are labeled.

    Plus-K_{q-1} test (``child_is_plus_k``).  Precondition: P is itself
    plus-K_{q-1}; the descent checks each seed, and every child passes
    this test.  In C = P - uv a non-edge xy of P keeps its common
    neighbourhood and the edges inside it unless u and v both lie in
    N(x) & N(y) | {x, y}: with x = u it loses v when v is in N(y), and with
    x, y away from u and v it loses the edge uv when both lie in it.  A
    non-edge whose common neighbourhood holds a K_{q-2} (one that is not
    re-addable) still holds a K_{q-3} after losing one vertex or one edge,
    and by the precondition every other one holds a K_{q-3} in P.  So C is
    plus-K_{q-1} exactly when N(u) & N(v), which C keeps with its edges,
    holds a K_{q-3} and every re-addable non-edge of P that passes the
    {u, v} filter still holds a K_{q-3} in C.  The test and the key rule's
    scan share one verdict per non-edge of P, re-addable or not, each found
    at most once."""
    dead = list(dead)
    n = len(adj)
    # Canonical parent (McKay, invariant half): C = P - uv is kept only if
    # no re-addable non-edge of C has a larger key than uv.  A non-edge xy
    # is re-addable when its common neighbourhood holds no K_{q-2}, so that
    # C + xy is a family member one layer up; key(x, y) is (common
    # neighbours, degree sum) in C, packed into one int (degree sums stay
    # below 1 << 7 on 64 vertices).  Each class is still reached: from the
    # class of C + xy for its largest-key xy.
    #
    # One pass over P's rows, last first so that every later vertex's
    # degree is known, gives the degrees, the complement rows, P's
    # non-edges with their keys and the twin-swap orbits (see twin_pairs):
    # an edge uv, u < v, is the first of its orbit when u is the first of
    # its twin class and v is the first of its own or the next twin of u.
    # (Bits are iterated inline here and in the edge loop below: a
    # generator costs more than the work per bit.)
    twin = twin_pairs(adj)
    full = (1 << n) - 1
    deg = [0] * n
    cadj = [0] * n
    later = 0
    after = [0] * n
    gaps = []
    for x in range(n - 1, -1, -1):
        ax = adj[x]
        dx = deg[x] = ax.bit_count()
        cx = cadj[x] = full ^ ax ^ 1 << x
        p = twin[x]
        if p:
            later |= 1 << x
            after[p.bit_length() - 1] = 1 << x
        rest = cx >> (x + 1) << (x + 1)
        while rest:
            b = rest & -rest
            rest ^= b
            y = b.bit_length() - 1
            gaps.append(((ax & adj[y]).bit_count() << 7 | (dx + deg[y]), x, y))
    # largest key first; readd holds the re-addable ones among gaps[:done]
    gaps.sort(reverse=True)
    done = 0
    readd = []
    verdict = bytearray(n * n)
    children = {}
    for u, au in enumerate(adj):
        if twin[u]:
            continue
        row = (au >> (u + 1) << (u + 1) & ~later | after[u] & au) & ~dead[u]
        bu = 1 << u
        while row:
            bv = row & -row
            row ^= bv
            v = bv.bit_length() - 1
            uv = bu | bv
            key = (au & adj[v]).bit_count() << 7 | (deg[u] + deg[v] - 2)
            # A re-addable non-edge of P away from u and v stays one in C
            # with the same key.  The gaps past done are tested only while
            # their key is above this one, so none above it is left untested
            # when the edge passes.
            outranked = False
            for k, pair in readd:
                if k <= key:
                    break
                if not pair & uv:
                    outranked = True
                    break
            else:
                while done < len(gaps) and gaps[done][0] > key:
                    k, x, y = gaps[done]
                    done += 1
                    if _readdable(adj, n, x, y, q, verdict):
                        pair = 1 << x | 1 << y
                        readd.append((k, pair))
                        if not pair & uv:
                            outranked = True
                            break
            if outranked:
                continue
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
            child = list(adj)
            child[u] = au ^ bv
            child[v] ^= bu
            if (
                not child_is_plus_k(adj, u, v, q, verdict)
                or has_clique_within(cadj, cadj[u] & cadj[v], t - 1)
                or entries and not arrows(child, entries)
            ):
                dead[u] |= bv
                dead[v] |= bu
                continue
            # The rest of the rule, over the gaps above the key, all tested
            # in P by now: non-edges at u or v lose v or u from the common
            # neighbourhood and one from the degree sum, and those with u
            # and v both in the common neighbourhood lose the edge uv inside
            # it.  Keys only fall, so P's order bounds the scan; the other
            # non-edges keep their key and their verdict in P, which did not
            # outrank uv.
            for k, x, y in gaps:
                if k <= key:
                    break
                common = child[x] & child[y]
                if x == u or x == v or y == u or y == v:
                    if (common.bit_count() << 7 | (k & 127) - 1) <= key:
                        continue
                elif common & uv != uv:
                    continue
                if not has_clique_within(child, common, q - 2):
                    outranked = True
                    break
            # the first adjacency built for a line is the one returned
            if not outranked:
                children.setdefault(canonical_line(child), tuple(child))
    dead = tuple(dead)
    return [(line, (child, dead)) for line, child in sorted(children.items())]


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


def maximal_kt_free_subsets(adj, t, keep):
    """All inclusion-maximal vertex masks whose induced subgraph has no
    K_t and that contain the mask ``keep``, in ascending mask order; t >= 1.

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
        raise ValueError(f"subset clique threshold {t} below 1")
    full = (1 << len(adj)) - 1
    cliques, inc = _clique_masks(adj, t)
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


def _deficient_cover(adj, q):
    """Plus-K_q of a K_q-free graph h, given as ``adj``, grown by new
    vertices on maximal K_{q-1}-free sets of h, decided as a set cover.
    Returns ``(need, fixes, ends)``: one bit of ``need`` per deficient
    non-edge of h, ``fixes(M)`` the bits of those that M fixes, and
    ``ends`` the union of the deficient non-edges' ends.

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
    full = (1 << len(adj)) - 1
    deficient = []
    ends = 0
    for x, row in enumerate(adj):
        rest = ~row & full >> (x + 1) << (x + 1)
        while rest:
            b = rest & -rest
            rest ^= b
            common = row & adj[b.bit_length() - 1]
            if not has_clique_within(adj, common, q - 2):
                deficient.append((1 << x | b, common))
                ends |= 1 << x | b

    def fixes(M):
        f = 0
        for bit, (pair, common) in enumerate(deficient):
            if pair & M == pair and has_clique_within(adj, common & M, q - 3):
                f |= 1 << bit
        return f

    return (1 << len(deficient)) - 1, fixes, ends


def valid_multisets(adj, q, r, t):
    """The r-element multisets of maximal K_{q-1}-free vertex sets of the
    host h, given as ``adj``, that can serve as neighbourhoods of r new
    independent vertices and make the extended graph plus-K_q: every pair
    (repeats included) intersects in a set carrying a K_{q-2}, deleting the
    union of any k of them leaves independence number at most t - k, and
    their fixes cover D(h), the deficient non-edges of h.  Returned as
    tuples of masks in nondecreasing set order; q >= 2, r >= 0.

    By the lemma of ``_deficient_cover`` such a multiset makes the
    extended graph plus-K_q exactly when its fixes cover D(h).  D(h) is
    found first, once per host, and each candidate's fixes once, as a
    bitmask over D(h); every slot stops at the first candidate from which
    the fixes still available (repeats allowed, so its own included)
    cannot cover what is left, and the last slot takes only a candidate
    that finishes the cover itself, before its pair and residue tests, so
    a full multiset covers D(h) and is emitted untested.  At r = 0 that
    leaves h itself, valid exactly when D(h) is empty.

    Lemma (K_{q-2}).  A maximal K_{q-1}-free set M other than V holds a
    K_{q-2}, so only M = V needs the kernel's test: T = V - M is a minimal
    transversal of the (q-1)-cliques, so each x in T lies in a (q-1)-clique
    C that meets T only in x, and C - x is a K_{q-2} inside M.

    Lemma (ends).  M fixes a deficient non-edge xy only if x and y are in
    M, so a set that fixes them all contains their union ``ends``.  At
    r = 1 the one slot is the last, so its set must fix them all: only the
    maximal K_{q-1}-free sets that contain ``ends`` are listed
    (``maximal_kt_free_subsets`` with ``keep = ends``, none when ``ends``
    holds a K_{q-1}), and each is tested for the cover, the K_{q-2} and
    the residue in turn."""
    if r < 0:
        raise ValueError(f"negative multiset size {r}")
    if q < 2:
        raise ValueError(f"subset clique threshold {q - 1} below 1")
    need, fixes, ends = _deficient_cover(adj, q)
    if r == 0:
        # h alone: no slot can fix anything, so D(h) must be empty
        return [] if need else [()]
    full = (1 << len(adj)) - 1
    cadj = complement_adj(adj)
    if r == 1:
        # the ends lemma above; the residue of one set M is V - M
        return [
            (M,)
            for M in maximal_kt_free_subsets(adj, q - 1, ends)
            if fixes(M) == need
            and (M != full or has_clique_within(adj, M, q - 2))
            and not has_clique_within(cadj, full & ~M, t)
        ]
    subsets = maximal_kt_free_subsets(adj, q - 1, 0)
    alpha_rest = {}

    def rest_ok(union, k):
        got = alpha_rest.get(union)
        if got is None:
            got = max_clique_size_within(cadj, full & ~union)
            alpha_rest[union] = got
        return got <= t - k

    # a maximal K_{q-1}-free M other than V holds a K_{q-2}: see above
    cand = [
        i
        for i, M in enumerate(subsets)
        if (M != full or has_clique_within(adj, M, q - 2)) and rest_ok(M, 1)
    ]
    # fix[pos]: the deficient non-edges cand[pos] fixes; ahead[pos]: those
    # fixed by cand[pos:], all that the slots from pos on may still add
    fix = [fixes(subsets[i]) for i in cand]
    ahead = [0] * (len(cand) + 1)
    for pos in range(len(cand) - 1, -1, -1):
        ahead[pos] = ahead[pos + 1] | fix[pos]
    # a candidate meets itself in a K_{q-2}, as its filter found
    pair_ok = {(i, i): True for i in cand}

    def compatible(i, j):
        key = (i, j) if i <= j else (j, i)
        got = pair_ok.get(key)
        if got is None:
            got = has_clique_within(adj, subsets[i] & subsets[j], q - 2)
            pair_ok[key] = got
        return got

    out = []
    chosen = []

    # unions[b]: the union and the count of the chosen slots at the bits of
    # b; each chosen slot doubles the list
    def rec(start, covered, unions):
        d = len(chosen)
        if d == r:
            # the last slot took only a candidate that finished the cover
            out.append(tuple(subsets[i] for i in chosen))
            return
        last = d == r - 1
        for pos in range(start, len(cand)):
            # ahead only shrinks with pos: no later candidate can finish
            # either (at the root this drops a host that no multiset covers)
            if covered | ahead[pos] != need:
                break
            # the last slot must finish the cover itself
            if last and covered | fix[pos] != need:
                continue
            i = cand[pos]
            if any(not compatible(j, i) for j in chosen):
                continue
            # residue condition for every subset of the chosen slots joined by
            # the new one; they make the next slot's unions
            grown = list(unions)
            for union, k in unions:
                union |= subsets[i]
                if not rest_ok(union, k + 1):
                    break
                grown.append((union, k + 1))
            else:
                chosen.append(i)
                rec(pos, covered | fix[pos], grown)
                chosen.pop()

    rec(0, 0, [(0, 0)])
    return out


def extension_lines(adj, entries, q, r, t):
    """The output lines of one extension host, sorted and each once: for
    every multiset of ``valid_multisets(adj, q, r, t)`` the host with r new
    independent vertices attached on its sets (``graphs.attach``), kept
    when it arrows the canonical vector ``entries``, as its
    ``canonical_line``.  Each such graph is plus-K_q by the cover lemma and
    is not tested for it; the caller passes () as the vector when the
    K_{q-1} that every such graph holds (at r >= 2) already arrows it."""
    lines = set()
    for masks in valid_multisets(adj, q, r, t):
        child = attach(adj, masks)
        if not entries or arrows(child, entries):
            lines.add(canonical_line(child))
    return sorted(lines)
