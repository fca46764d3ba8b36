"""Generation engine for maximal K_q-free arrowing families.

Two cooperating constructions:

* ``plus_clique_descent`` walks down the edge-removal lattice from the
  edge-maximal members of a family and collects every graph of the family
  whose missing edges each complete a new (q-1)-clique.  Arrowing, the
  independence cap and the plus-clique property itself are all inherited
  upward along edge addition, so a graph failing any of them heads a
  subtree that can be skipped entirely.  A parent loses one edge per orbit
  of its twin swaps (transpositions of vertices with equal open or closed
  neighbourhoods, see ``cliques.twin_pairs``): every test below commutes
  with automorphisms of the parent, so the other edges of an orbit give
  isomorphic children with the same verdict.  Each child is tested against
  all three (the plus-clique test, the most selective, first) and against the
  invariant half of McKay's canonical-parent test before it is canonically
  labeled: P - uv is kept only if no re-addable non-edge of the child has a
  larger (common neighbours, degree sum) key than uv.  The non-edges that
  keep their key and re-addability from P are checked before the family
  tests, the others after.  P's non-edges are sorted by key once per
  class, and one is tested for re-addability (at most once) only when the
  rule of some edge reaches it, its key being above that edge's.  So only
  members of the collected set are labeled, most of them once; the
  collected set of canonical lines stays the exact isomorph rejection, and
  a line is expanded only when it first enters it.  Every child that
  passes the plus-clique test holds a K_{q-2}, so when that alone arrows
  the vector (``arrowing.clique_arrows``) no child is tested for arrowing.

  A class travels with dead masks: the edges whose removal failed a family
  test in the class or in any ancestor.  The three family tests carry down
  under edge removal (if P - e fails one, so does P - uv - e), so a dead
  edge heads a subtree with no member and is never tried again below.  An
  edge is checked against the masks after the twin-orbit choice: the
  orbit's other edges give isomorphic, equally failing children.  Only
  family-test failures are marked; the key rule's rejections depend on the
  whole graph and are retried in every child.

* ``generate_family`` / ``generate_family_cone_split`` lift a complete
  family on n-r vertices (its smallest clique target lowered by one) to the
  complete family on n vertices with independence number in [r, t]: attach r
  new independent vertices whose neighbourhoods are maximal K_{q-1}-free
  sets chosen under the pair-intersection and independence-residue
  conditions, then keep the results that arrow the full target vector
  (each holds a K_{q-1}, so only a vector that K_{q-1} does not arrow is
  tested).
  Such a result is edge-maximal (plus-K_q) exactly when the chosen sets
  together fix every non-edge of the host whose common neighbourhood
  holds no K_{q-2}; ``valid_multisets`` searches only multisets that can
  still cover those non-edges, and fills the last slot only with a set
  that completes the cover, so every multiset it returns covers them and
  no extended graph is tested for it afterwards.  The cone-split variant
  restricts the expensive extension to cone-vertex-free hosts and recovers
  the coned part of the family directly from the one-smaller and
  one-sparser families.  Both add their new vertices with
  ``graphs.attach``.

Both constructions run their work units through ``_dispatch``: one class
of the descent, or one extension host, per task.  The calling process is
one of the workers: the others are a fork pool of workers - 1 processes
(none for one worker), shared by every call made inside a ``worker_pool``
block (a pipeline run opens one for the whole run).  While more than one
task is pending an idle forked worker is sent up to ``_BATCH`` of them per
message; otherwise the caller runs the next task itself.
The descent's work list is a stack of the classes not yet expanded, each
held as the adjacency its worker built with its dead masks, so no class is
decoded from graph6 again; a class is pushed when its canonical line first
enters the result.
Every child test commutes with relabeling, so the children's lines do not
depend on which labeling of a class is expanded.  Results merge into sets
of canonical lines, so the output is identical for any worker count.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from . import _kernels as K
from .arrowing import ArrowVector, arrows_adj, canonicalize, clique_arrows
from .canon import GraphSet, canonical_line, cone_count
from .cliques import complement_adj, deficient_cover, maximal_kt_free_subsets, twin_pairs
from .graphs import (
    Graph, GraphError, MAX_VERTICES, attach, from_graph6, graph6_lines, unpack_graph6
)


class Family(NamedTuple):
    """The family H(avec; q; n) with independence cap t: the K_q-free graphs
    on n vertices with independence number at most t that arrow the
    canonical vector ``avec``.  Its ``str`` is the manifest's
    ``avec; q; n; t`` line."""

    avec: tuple
    q: int
    n: int
    t: int

    def __str__(self) -> str:
        return f"{','.join(map(str, self.avec))}; {self.q}; {self.n}; {self.t}"

    def key(self) -> str:
        return f"a{'-'.join(map(str, self.avec))}_q{self.q}_n{self.n}_t{self.t}"

    def display(self) -> str:
        return f"H({', '.join(map(str, self.avec))}; {self.q}; {self.n})"

    def normalized(self) -> "Family":
        """The family with a one-entry vector a1 <= q - 1 <= n raised to
        q - 1: both have the same edge-maximal members, each holding a
        K_{q-1}."""
        if len(self.avec) == 1 and self.avec[0] <= self.q - 1 <= self.n:
            return self._replace(avec=(self.q - 1,))
        return self

    def defect(self, adj):
        """Why the graph with masks ``adj`` is not a member, or None: it
        has a K_q, independence number above t, does not arrow ``avec`` or
        has another vertex count, tested in that order."""
        if K.impl.has_clique_at_least(adj, self.q):
            return f"has a K_{self.q}"
        if K.impl.has_clique_at_least(complement_adj(adj), self.t + 1):
            return f"has independence number above {self.t}"
        if not arrows_adj(adj, self.avec):
            return f"does not arrow ({', '.join(map(str, self.avec))})"
        if len(adj) != self.n:
            return f"has {len(adj)} vertices, family has {self.n}"
        return None


@dataclass(frozen=True)
class FamilySpec:
    """Target family: vector avec, clique bound q, order n, independence
    window [r, t]."""

    avec: ArrowVector
    q: int
    n: int
    r: int
    t: int

    def __post_init__(self):
        vec = self.avec if isinstance(self.avec, ArrowVector) else ArrowVector(tuple(self.avec))
        object.__setattr__(self, "avec", vec.canonical())
        if not self.avec.entries:
            raise GraphError("empty target vector")
        if self.q <= self.avec.p:
            raise GraphError(
                f"family is empty unless q > max entry: q={self.q}, p={self.avec.p}"
            )
        if not 2 <= self.r <= self.t:
            raise GraphError(f"need 2 <= r <= t, got r={self.r}, t={self.t}")
        if not 1 <= self.n <= MAX_VERTICES:
            raise GraphError(f"order {self.n} outside 1..{MAX_VERTICES}")
        if self.n - self.r < 1:
            raise GraphError(f"order {self.n} too small for r={self.r}")
        # found once: every extension call reads the chain rule
        object.__setattr__(self, "_decremented", self.avec.decremented_first())

    def decremented(self) -> ArrowVector:
        return self._decremented

    def input_family(self) -> Family:
        """A step's input: the decremented vector on n - r vertices."""
        return Family(self.decremented().entries, self.q, self.n - self.r, self.t)

    def cone_family(self) -> Family:
        """A cone split's second input: the decremented vector, q - 1, n - 1."""
        return Family(self.decremented().entries, self.q - 1, self.n - 1, self.t)


@dataclass
class AlgorithmResult:
    output: GraphSet
    plus_clique: GraphSet  # the descended set for the input family


class _Pool:
    """``forks`` forked processes, each running the tasks sent down its own
    pipe in order.  Unlike ``multiprocessing.Pool``, no thread relays the
    tasks and results, so a round trip costs two process wake-ups.  Each
    message carries a batch of tasks and its reply the list of their
    results.  A worker closes the parent's ends of the pool's pipes, so it
    sees EOF and exits when the parent dies without closing the pool."""

    def __init__(self, forks):
        self.conns = []
        self.procs = []
        self.closed = False
        try:
            for _ in range(forks):
                # looked up only to fork: a one-worker pool pays nothing
                ctx = multiprocessing.get_context("fork")
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(theirs, self.conns + [ours]), daemon=True)
                proc.start()
                theirs.close()
                self.conns.append(ours)
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def close(self):
        self.closed = True
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()


def _serve(conn, parent_ends):
    for end in parent_ends:
        end.close()
    while True:
        try:
            fn, batch = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, [fn(task) for task in batch])
        except Exception as exc:
            import traceback

            reply = (False, (exc, traceback.format_exc()))
        conn.send(reply)


# (workers, pool) of the innermost open worker_pool block, or None
_open_pool = None


@contextmanager
def worker_pool(workers):
    """Fork ``workers`` - 1 processes once (none for one worker); with the
    calling process they are the workers of every plus_clique_descent and
    family extension made with the same worker count inside the block.
    Yields the pool.  Inside a block that already holds an open pool of that
    size, yields that pool; otherwise the pool made here is closed when the
    block exits, however it exits.  A count below 1 is an input error."""
    global _open_pool
    if workers < 1:
        raise GraphError(f"needs at least 1 worker, got {workers}")
    if _open_pool is not None and _open_pool[0] == workers and not _open_pool[1].closed:
        yield _open_pool[1]
        return
    outer = _open_pool
    pool = _Pool(workers - 1)
    _open_pool = (workers, pool)
    try:
        yield pool
    finally:
        _open_pool = outer
        pool.close()


_BATCH = 64  # most tasks sent to a worker in one message


def _dispatch(fn, tasks, give, workers):
    """Call give(fn(task)) for every task of the list ``tasks``, last one
    first, until the list is empty with no task in flight.  give() may push
    new tasks onto the list.  The caller is one of the workers, and each
    forked worker of the worker_pool holds one batch at a time: while more
    than one task is pending, a free one is sent up to
    min(_BATCH, max(1, len(tasks) // (2 * workers))) tasks popped in one
    message, so a long list costs few round trips while a short one still
    spreads over the workers.  Otherwise the caller pops one task, runs it
    and collects the replies already in, blocking only when the list is
    empty and batches are in flight.  With one worker the pool forks
    nothing, so every task runs in the caller as it is popped.  A task is
    one item; the constants of the call go on ``fn`` (a ``partial``).
    Results are given in completion order, a batch's in the order its tasks
    were popped; a task that raises raises here and closes the pool."""
    with worker_pool(workers) as pool:
        idle = pool.conns[::-1]
        running = set()
        try:
            while tasks or running:
                while idle and len(tasks) > 1:
                    k = min(_BATCH, max(1, len(tasks) // (2 * workers)))
                    conn = idle.pop()
                    conn.send((fn, [tasks.pop() for _ in range(k)]))
                    running.add(conn)
                if tasks:
                    give(fn(tasks.pop()))
                if running:
                    # loaded only with a batch in flight, so never at one worker
                    from multiprocessing.connection import wait

                    # poll while tasks are pending, block once none is
                    for conn in wait(list(running), 0 if tasks else None):
                        try:
                            ok, value = conn.recv()
                        except EOFError:
                            raise RuntimeError("a worker process exited during its task") from None
                        running.remove(conn)
                        idle.append(conn)
                        if not ok:
                            exc, where = value
                            raise exc from RuntimeError(f"in a worker process:\n{where}")
                        for result in value:
                            give(result)
        except BaseException:
            # Tasks left running would answer the next call: end them now.
            # A later call inside the same worker_pool block forks anew.
            pool.close()
            raise


def _descent_worker(entries, q, t, task):
    """The children of the class ``task = (adj, dead)`` in (entries; q; t):
    sorted (canonical line, child task) pairs, one per child class, each
    adjacency as built here.  dead[x] has bit y when removing the edge xy
    failed a family test in this class or an ancestor; such an edge is not
    tried, and every child carries the class's final dead masks.  The
    kernel tests a non-edge of P for re-addability only when the key rule
    of some edge reaches it, and a child is tested for arrowing only when
    holding a K_{q-2} does not already decide it."""
    adj, dead = task
    dead = list(dead)
    n = len(adj)
    impl = K.impl
    # A kept child passed is_plus_k(child, q - 1) and its non-edge uv
    # completes a K_{q-1}, so it holds a K_{q-2}: the arrowing test is
    # needed only when such a graph may fail it.
    arrowing = not clique_arrows(entries, q - 2)
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
                    if not impl.has_clique_within(adj, adj[x] & adj[y], q - 2):
                        pair = 1 << x | 1 << y
                        readd.append((k, pair))
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
                or arrowing and not arrows_adj(child, entries)
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
                if not impl.has_clique_within(child, common, q - 2):
                    outranked = True
                    break
            if not outranked:
                children.setdefault(canonical_line(child), tuple(child))
    dead = tuple(dead)
    return [(line, (child, dead)) for line, child in sorted(children.items())]


def load_family(path, family=None) -> GraphSet:
    """The graph6 file at ``path`` as a GraphSet, each line decoded once:
    the one reader of untrusted family files.  Under a ``Family`` a graph
    that is not a member (``Family.defect``) or, after that, not plus-K_q
    raises GraphError naming its canonical line."""
    out = GraphSet()
    for line in graph6_lines(path):
        adj = from_graph6(line).adj
        canon = canonical_line(adj)
        if family is not None:
            defect = family.defect(adj)
            if defect is None and not K.impl.is_plus_k(adj, family.q):
                defect = "is not edge-maximal"
            if defect:
                raise GraphError(f"file member {canon}: {defect}")
        out.insert_canonical(canon)
    return out


def plus_clique_descent(maximals, avec, q, t, workers=1):
    """All graphs of the family (avec; q; same order; independence <= t)
    whose every missing edge completes a new (q-1)-clique, one per
    isomorphism class.  ``maximals`` must be the complete edge-maximal
    family; ``avec`` is that family's own vector.  A class is reached only
    through its canonical parent, so from an incomplete family the descent
    can miss classes that a walk over every child would find."""
    entries = canonicalize(avec).entries
    seeds = list(maximals)
    result = GraphSet()
    if not seeds:
        return result
    family = Family(entries, q, seeds[0].n, t)
    # Workers pass on plus-clique members only, so every line they return
    # belongs in the result, and a class goes on the work list, as the
    # task (adjacency, dead masks) that came with its line, only when the
    # line first enters the result: each class is expanded once.  The list
    # is popped last in, first out, so it stays small.  A seed has no dead
    # edge yet.
    tasks = []

    def enter(children):
        for line, task in children:
            if result.insert_canonical(line):
                tasks.append(task)

    for g in seeds:
        defect = family.defect(g.adj)
        if defect:
            raise GraphError(f"seed {defect}")
        # a seed outside the plus-clique family heads an empty subtree
        if K.impl.is_plus_k(g.adj, q - 1):
            enter([(canonical_line(g.adj), (g.adj, (0,) * g.n))])
    _dispatch(partial(_descent_worker, entries, q, t), tasks, enter, workers)
    return result


def valid_multisets(h: Graph, q: int, r: int, t: int):
    """The r-element multisets of maximal K_{q-1}-free vertex sets of h that
    can serve as neighbourhoods of r new independent vertices and make the
    extended graph plus-K_q: every pair (repeats included) intersects in a
    set carrying a K_{q-2}, deleting the union of any k of them leaves
    independence number at most t - k, and their fixes cover D(h), the
    deficient non-edges of h.  Returned as tuples of masks in nondecreasing
    set order.

    By the lemma of ``cliques.deficient_cover`` such a multiset makes the
    extended graph plus-K_q exactly when its fixes cover D(h).  D(h) is
    found once per host and each candidate's fixes once, as a bitmask over
    D(h); every slot stops at the first candidate from which the fixes
    still available (repeats allowed, so its own included) cannot cover
    what is left, and the last slot takes only a candidate that finishes
    the cover itself, before its pair and residue tests, so a full
    multiset covers D(h) and is emitted untested.  At r = 0 that leaves h
    itself, valid exactly when D(h) is empty.

    Lemma.  A maximal K_{q-1}-free set M other than V holds a K_{q-2}, so
    only M = V needs the kernel's test: T = V - M is a minimal transversal
    of the (q-1)-cliques, so each x in T lies in a (q-1)-clique C that
    meets T only in x, and C - x is a K_{q-2} inside M."""
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

    # a maximal K_{q-1}-free M other than V holds a K_{q-2}: see above
    cand = [
        i
        for i, M in enumerate(subsets)
        if (M != full or impl.has_clique_within(adj, M, q - 2)) and rest_ok(M, 1)
    ]
    need, fixes, _ = deficient_cover(adj, q)
    if r == 0:
        # h alone: no slot can fix anything, so D(h) must be empty
        return [] if need else [()]
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
            got = impl.has_clique_within(adj, subsets[i] & subsets[j], q - 2)
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


def attach_vertices(h: Graph, masks) -> Graph:
    """h plus len(masks) new pairwise non-adjacent vertices, the j-th one
    adjacent exactly to masks[j]."""
    return Graph(h.n + len(masks), attach(h.adj, masks))


def _extension_worker(entries, q, r, t, cone_free, line):
    """The set of output lines of one canonical host line (none for a
    coned host under ``cone_free``)."""
    results = set()
    if cone_free and cone_count(line):
        return results
    h = from_graph6(line)
    # Every multiset gives a plus-K_q graph (see valid_multisets).  Its
    # r >= 2 new vertices are independent, and a non-edge between two of
    # them completes a K_q, so the graph holds a K_{q-1}: the arrowing test
    # is needed only when such a graph may fail it.
    arrowing = not clique_arrows(entries, q - 1)
    for masks in valid_multisets(h, q, r, t):
        # built from a validated host, so the adjacency skips Graph's checks
        adj = attach(h.adj, masks)
        if not arrowing or arrows_adj(adj, entries):
            results.add(canonical_line(adj))
    return results


def _extend(spec, seeds, workers, descended, cone_free=False):
    """Order-check ``seeds``, extend ``descended`` or their descent (cone-free
    hosts only under ``cone_free``), one host line per task; the output and
    the plus-clique set."""
    _check_input_order(seeds, spec.input_family().n, "input family")
    if descended is None:
        descended = plus_clique_descent(seeds, spec.decremented(), spec.q, spec.t, workers=workers)
    out = GraphSet()

    def give(lines):
        for line in lines:
            out.insert_canonical(line)

    worker = partial(_extension_worker, spec.avec.entries, spec.q, spec.r, spec.t, cone_free)
    _dispatch(worker, descended.lines(), give, workers)
    return out, descended


def _check_input_order(seeds, expected, what):
    for n, _ in map(unpack_graph6, seeds.lines()):
        if n != expected:
            raise GraphError(f"{what} must have {expected} vertices, found {n}")


def generate_family(spec: FamilySpec, seeds, workers=1, descended=None) -> AlgorithmResult:
    """Complete edge-maximal family for ``spec`` (independence in [r, t])
    from the GraphSet ``seeds`` of the complete maximal family of the
    decremented vector on n - r vertices.  ``descended`` may carry a
    precomputed plus-clique set for the input family (e.g. from a checkpoint)."""
    output, aprime = _extend(spec, seeds, workers, descended)
    return AlgorithmResult(output=output, plus_clique=aprime)


def generate_family_cone_split(
    spec: FamilySpec, seeds, cone_seeds, workers=1, descended=None
) -> AlgorithmResult:
    """Same output as generate_family, computed by extending only the
    cone-vertex-free part of the descended set.  The GraphSet ``cone_seeds``
    is the complete maximal family of the decremented vector with clique
    bound q - 1 on n - 1 vertices; it contributes the coned outputs
    directly.  They are attached: a seed w with one cone vertex c, its
    last (see ``cone_count``), gets r new vertices on w - c (with c, r + 1
    independent vertices on w - c), a cone seed h one new vertex on all of h."""
    _check_input_order(cone_seeds, spec.cone_family().n, "cone input family")
    output, aprime = _extend(spec, seeds, workers, descended, cone_free=True)
    entries = spec.avec.entries
    if spec.t > spec.r:
        coned = [line for line in seeds.lines() if cone_count(line) == 1]
        for w in map(from_graph6, coned):
            if arrows_adj(w.adj, entries):
                adj = attach(w.adj, [w.full_mask() >> 1] * spec.r)
                output.insert_canonical(canonical_line(adj))
    impl = K.impl
    for h in cone_seeds:
        if impl.has_clique_at_least(complement_adj(h.adj), spec.r):
            adj = attach(h.adj, [h.full_mask()])
            if arrows_adj(adj, entries):
                output.insert_canonical(canonical_line(adj))
    return AlgorithmResult(output=output, plus_clique=aprime)


def complete_base(avec, q, n, t) -> GraphSet:
    """The single-complete-graph base family: for a one-entry vector with
    a1 <= n <= q - 1 the edge-maximal family on n vertices is {K_n}."""
    vec = canonicalize(avec)
    if len(vec.entries) != 1:
        raise GraphError(f"complete base needs a single-entry vector, got ({vec})")
    a1 = vec.entries[0]
    if not a1 <= n <= q - 1:
        raise GraphError(f"complete base needs a1 <= n <= q-1, got a1={a1}, n={n}, q={q}")
    out = GraphSet()
    out.insert(Graph.complete(n))
    return out
