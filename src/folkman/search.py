"""Generation engine for maximal K_q-free arrowing families.

Two cooperating constructions:

* ``plus_clique_descent`` walks down the edge-removal lattice from the
  edge-maximal members of a family and collects every graph of the family
  whose missing edges each complete a new (q-1)-clique.  Arrowing, the
  independence cap and the plus-clique property itself are all inherited
  upward along edge addition, so a graph failing any of them heads a
  subtree that can be skipped entirely.  The children of one class come
  from the kernel ``descent_children``: one edge removed per orbit of the
  parent's twin swaps, the three family tests, the invariant half of
  McKay's canonical-parent test (the key rule) and the dead masks that a
  class hands down to its children.  The pure twin
  (``_kernels_py.descent_children``) states that rule and its reasons;
  the compiled twin runs the same loop in C.  Only members of the
  collected set are labeled, most of them once; the collected set of
  canonical lines stays the exact isomorph rejection, and a line is
  expanded only when it first enters it.  Every kept child holds a
  K_{q-2}, so when that alone arrows the vector
  (``arrowing.clique_arrows``, decided once per descent) no child is
  tested for arrowing.

* ``generate_family`` / ``generate_family_cone_split`` lift a complete
  family on n-r vertices (its smallest clique target lowered by one) to the
  complete family on n vertices with independence number in [r, t]: attach r
  new independent vertices whose neighbourhoods are maximal K_{q-1}-free
  sets chosen under the pair-intersection and independence-residue
  conditions, then keep the results that arrow the full target vector
  (each holds a K_{q-1}, so only a vector that K_{q-1} does not arrow is
  tested; decided once per extension).
  Such a result is edge-maximal (plus-K_q) exactly when the chosen sets
  together fix every non-edge of the host whose common neighbourhood
  holds no K_{q-2}; ``valid_multisets`` searches only multisets that can
  still cover those non-edges, and fills the last slot only with a set
  that completes the cover, so every multiset it returns covers them and
  no extended graph is tested for it afterwards.  One host's outputs come
  from the kernel ``extension_lines``: MMCS (``maximal_kt_free_subsets``),
  the deficient cover, the cover-first multiset search, the new vertices
  attached, the arrowing test and the canonical lines.  The pure twin
  (``_kernels_py``) states the cover lemma and the search; the compiled
  twin runs the same loop in C.  A task is a host's canonical line: the
  kernel ``graph6_adj`` decodes it and, in the cone split, the kernel
  ``cone_count`` filters it first, so a host's task is kernel calls
  only.  The cone-split variant restricts the expensive extension to
  cone-vertex-free hosts and recovers the coned part of the family
  directly from the one-smaller and one-sparser families.  New vertices are added by ``graphs.attach`` (the pure
  kernel's, and the cone split's coned outputs) or in C.

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
from .cliques import complement_adj
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
    """The children of the class ``task = (adj, dead)`` in (entries; q; t),
    as ``descent_children`` of the kernel backend in use at call time
    returns them; ``entries`` is () when the caller found that the
    children's K_{q-2} decides arrowing (see ``plus_clique_descent``)."""
    adj, dead = task
    return K.impl.descent_children(adj, dead, entries, q, t)


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
    # a kept child holds a K_{q-2} (see descent_children), so the vector
    # goes to the kernel only when such a graph may fail to arrow it
    vec = () if clique_arrows(entries, q - 2) else entries
    _dispatch(partial(_descent_worker, vec, q, t), tasks, enter, workers)
    return result


def valid_multisets(h: Graph, q: int, r: int, t: int):
    """The r-element multisets of maximal K_{q-1}-free vertex sets of h that
    can serve as neighbourhoods of r new independent vertices and make the
    extended graph plus-K_q, as tuples of masks in nondecreasing set order:
    the kernel ``valid_multisets`` (the pure twin's docstring states the
    pair, residue and cover conditions and the cover-first search)."""
    return K.impl.valid_multisets(h.adj, q, r, t)


def attach_vertices(h: Graph, masks) -> Graph:
    """h plus len(masks) new pairwise non-adjacent vertices, the j-th one
    adjacent exactly to masks[j]."""
    return Graph(h.n + len(masks), attach(h.adj, masks))


def _extension_worker(entries, q, r, t, cone_free, line):
    """The sorted output lines of one canonical host line (none for a
    coned host under ``cone_free``), as ``extension_lines`` of the kernel
    backend in use at call time returns them; ``entries`` is () when the
    caller found that the outputs' K_{q-1} decides arrowing (see
    ``_extend``)."""
    impl = K.impl
    if cone_free and impl.cone_count(line):
        return ()
    return impl.extension_lines(impl.graph6_adj(line), entries, q, r, t)


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

    # Every multiset gives a plus-K_q graph (see valid_multisets).  Its
    # r >= 2 new vertices are independent, and a non-edge between two of
    # them completes a K_q, so the graph holds a K_{q-1}: the vector goes
    # to the kernel only when such a graph may fail to arrow it.
    entries = spec.avec.entries
    vec = () if clique_arrows(entries, spec.q - 1) else entries
    worker = partial(_extension_worker, vec, spec.q, spec.r, spec.t, cone_free)
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
