"""Parity between the pure-Python kernels and the compiled twin, plus
correctness of both against definition-level brute force."""

import random
import shutil
import subprocess
import sysconfig

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkman import _kernels_py as py
from folkman.graphs import Graph, bits_of, join
from tests.conftest import (
    KERNELS_C,
    available_backends,
    complete_less_matching,
    from_edges,
    graphs,
    has_edge,
    induced,
    random_graph,
    random_permuted,
)
from tests.oracles import (
    _reference_refine,
    arrows_brute,
    canonical_perm_reference,
    clique_number_brute,
    has_mono_clique,
)

cy = available_backends().get("compiled")

needs_compiled = pytest.mark.skipif(cy is None, reason="compiled backend unavailable")


def _assert_matches_reference(adj):
    want = canonical_perm_reference(adj)
    for name, kernels in available_backends().items():
        assert kernels.canonical_perm(adj) == want, (name, adj)


def _random_adj(rng, n, p=None):
    return random_graph(rng, n, p if p is not None else rng.random()).adj


def test_pure_kernels_against_brute_force(rng):
    # up to 12 vertices, so that masks of 9 or more reach the colouring
    # search of has_clique_within at t >= 3, with t - 1 or fewer found
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        w = clique_number_brute(g)
        assert py.max_clique_size(g.adj) == w
        for t in range(0, g.n + 2):
            assert py.has_clique_at_least(g.adj, t) == (t <= w)
        mask = rng.getrandbits(g.n) if g.n else 0
        w = clique_number_brute(induced(g, mask))
        assert py.max_clique_size_within(g.adj, mask) == w
        for t in range(0, g.n + 2):
            assert py.has_clique_within(g.adj, mask, t) == (t <= w)
        for t in range(0, 5):
            assert py.has_clique_within(g.adj, mask, t) == has_mono_clique(
                g, mask, t
            )


def test_free_partition_classes_are_valid(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 9), rng.random())
        s = rng.randint(1, 3)
        limits = tuple(rng.randint(0, 3) for _ in range(s))
        got = py.free_partition(g.adj, limits)
        if got is None:
            continue
        union = 0
        for mask, limit in zip(got, limits):
            assert union & mask == 0
            union |= mask
            assert py.max_clique_size_within(g.adj, mask) <= limit
        assert union == g.full_mask()


def _near_complete_cases(rng, trials):
    # dense graphs and masks with |mask| - t from 0 to one past the cover
    # cutoff, plus t = 2, t > |mask| and the empty mask
    for _ in range(trials):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, rng.choice((0.6, 0.8, 0.9, 0.97, 1)))
        mask = rng.getrandbits(n) if n else 0
        size = mask.bit_count()
        drops = range(py.COVER_MAX + 2)
        ts = {2, size + 1, size + 2} | {size - k for k in drops if size - k >= 0}
        yield g, mask, sorted(ts)
        yield g, 0, [0, 1, 2, 3]


def test_has_clique_within_near_complete_masks_against_brute_force(rng):
    checked = 0
    for g, mask, ts in _near_complete_cases(rng, 300):
        for t in ts:
            want = has_mono_clique(g, mask, t)
            for name, kernels in available_backends().items():
                assert kernels.has_clique_within(g.adj, mask, t) == want, (name, g.adj, mask, t)
            checked += want
    assert checked


def test_has_clique_within_against_networkx_clique_number(rng):
    nx = pytest.importorskip("networkx")
    for g, mask, ts in _near_complete_cases(rng, 200):
        h = nx.Graph()
        h.add_nodes_from(bits_of(mask))
        h.add_edges_from((u, v) for u in bits_of(mask) for v in bits_of(g.adj[u] & mask) if u < v)
        omega = max((len(c) for c in nx.find_cliques(h)), default=0)
        for t in ts:
            assert py.has_clique_within(g.adj, mask, t) == (t <= omega), (g.adj, mask, t)


@needs_compiled
def test_backend_parity(rng):
    for trial in range(500):
        n = rng.randint(0, 15)
        adj = _random_adj(rng, n)
        assert py.max_clique_size(adj) == cy.max_clique_size(adj)
        mask = rng.getrandbits(n) if n else 0
        assert py.max_clique_size_within(adj, mask) == cy.max_clique_size_within(
            adj, mask
        )
        for t in range(0, 7):
            assert py.has_clique_at_least(adj, t) == cy.has_clique_at_least(adj, t)
            assert py.has_clique_within(adj, mask, t) == cy.has_clique_within(
                adj, mask, t
            )
            assert py.is_plus_k(adj, t + 2) == cy.is_plus_k(adj, t + 2)
        s = rng.randint(0, 4)
        limits = tuple(rng.randint(0, 3) for _ in range(s))
        assert py.free_partition(adj, limits) == cy.free_partition(adj, limits)
        assert py.canonical_perm(adj) == cy.canonical_perm(adj)


@needs_compiled
def test_backend_parity_large_sparse_and_dense(rng):
    for n in (20, 24, 32):
        for p in (0.1, 0.5, 0.9):
            adj = _random_adj(rng, n, p)
            assert py.max_clique_size(adj) == cy.max_clique_size(adj)
            assert py.canonical_perm(adj) == cy.canonical_perm(adj)


@needs_compiled
def test_backend_parity_structured_graphs():
    cases = [
        Graph.complete(10),
        Graph.empty(12),
        Graph.cycle(11),
        Graph.cycle(13).complement(),
    ]
    for g in cases:
        assert py.canonical_perm(g.adj) == cy.canonical_perm(g.adj)
        assert py.max_clique_size(g.adj) == cy.max_clique_size(g.adj)
        assert py.free_partition(g.adj, (1, 2)) == cy.free_partition(g.adj, (1, 2))


@needs_compiled
def test_compiled_twin_caps_the_automorphism_store_alike():
    assert cy.MAX_AUT_GENERATORS == py.MAX_AUT_GENERATORS


@needs_compiled
def test_compiled_twin_reads_lists_and_tuples_alike(rng):
    # the descent worker passes a child adjacency as a list
    for _ in range(100):
        n = rng.randint(0, 20)
        adj = _random_adj(rng, n)
        rows = list(adj)
        mask = rng.getrandbits(n) if n else 0
        t = rng.randint(0, 5)
        limits = (1, 2)
        for f, args in (
            (cy.max_clique_size, ()),
            (cy.max_clique_size_within, (mask,)),
            (cy.has_clique_within, (mask, t)),
            (cy.has_clique_at_least, (t,)),
            (cy.is_plus_k, (t,)),
            (cy.free_partition, (limits,)),
            (cy.canonical_perm, ()),
        ):
            assert f(rows, *args) == f(adj, *args), (f.__name__, adj)


@needs_compiled
def test_compiled_twin_rejects_more_than_64_vertices():
    adj = (0,) * 65
    for f, args in (
        (cy.max_clique_size, ()),
        (cy.max_clique_size_within, (1,)),
        (cy.has_clique_within, (1, 2)),
        (cy.has_clique_at_least, (2,)),
        (cy.is_plus_k, (3,)),
        (cy.free_partition, ((1,),)),
        (cy.canonical_perm, ()),
    ):
        with pytest.raises(ValueError):
            f(adj, *args)


@needs_compiled
def test_compiled_canonical_perm_on_large_automorphism_groups():
    # the seeded G(n, p) graphs on which the earlier compiled search took
    # 0.8-6.4 s each
    rng = random.Random(0x5EED)
    for n, p in ((35, 0.003), (38, 0.995), (64, 0.007), (64, 0.993)):
        adj = _random_adj(rng, n, p)
        assert cy.canonical_perm(adj) == py.canonical_perm(adj), (n, p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs(6), st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple))
def test_free_partition_witness_property(g, limits):
    # the same witness on every backend; a valid one, or None exactly when
    # every colouring puts a (limit + 1)-clique in some class
    got = {name: k.free_partition(g.adj, limits) for name, k in available_backends().items()}
    witness = got.pop("python")
    assert all(other == witness for other in got.values()), (g.adj, limits, got)
    assert (witness is None) == arrows_brute(g, [lim + 1 for lim in limits])
    if witness is not None:
        union = 0
        for mask, lim in zip(witness, limits):
            assert union & mask == 0
            union |= mask
            assert py.max_clique_size_within(g.adj, mask) <= lim
        assert union == g.full_mask()


def test_compiled_source_builds_without_warnings(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    cmd = [
        cc, "-O2", "-Wall", "-Wextra", "-Werror", "-fPIC",
        "-I" + sysconfig.get_paths()["include"],
        "-c", str(KERNELS_C), "-o", str(tmp_path / "kernels.o"),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr


def test_canonical_perm_matches_reference_on_random_graphs(rng):
    for n in range(17):
        for p in (0, 0.02, 0.1, 0.5, 0.9, 0.98, 1):
            for _ in range(2):
                _assert_matches_reference(_random_adj(rng, n, p))


def _disjoint_union(g, h):
    return join(g.complement(), h.complement()).complement()


def _petersen():
    return from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )


def _prism(k):
    return from_edges(
        2 * k,
        [(i, (i + 1) % k) for i in range(k)]
        + [(k + i, k + (i + 1) % k) for i in range(k)]
        + [(i, k + i) for i in range(k)],
    )


def test_canonical_perm_matches_reference_on_structured_graphs():
    petersen = _petersen()
    cases = [Graph.empty(n) for n in range(14)] + [Graph.complete(n) for n in range(14)]
    for n in range(3, 17):
        cases += [Graph.cycle(n), Graph.cycle(n).complement()]
    cases += [petersen, petersen.complement()]
    # large automorphism groups: K_{3,3,3}, the 5-prism, K_12 less a
    # perfect matching
    k333 = join(join(Graph.empty(3), Graph.empty(3)), Graph.empty(3))
    for g in (k333, _prism(5), complete_less_matching(12)):
        cases += [g, g.complement()]
    cases += [join(Graph.empty(a), Graph.empty(b)) for a in range(1, 7) for b in range(1, 7)]
    triangles = Graph.complete(3)
    for _ in range(5):
        cases += [triangles, triangles.complement()]
        triangles = _disjoint_union(triangles, Graph.complete(3))
    # regular but not vertex-transitive: refinement leaves the partition
    # coarser than the orbits, so leaves with different codes compete
    for a in range(3, 9):
        for b in range(a, 9):
            g = _disjoint_union(Graph.cycle(a), Graph.cycle(b))
            cases += [g, g.complement()]
    for g in cases:
        _assert_matches_reference(g.adj)


def _blown_up(rng, base, closed, sizes=None):
    # base with vertex v replaced by a twin class of sizes[v] vertices (by
    # default some of 2-5, the rest single), a clique (closed twins) or an
    # independent set (open twins) by closed[v], relabeled
    if sizes is None:
        sizes = [rng.choice((1, 1, 2, 3, 4, 5)) for _ in range(base.n)]
    where = []
    for v, k in enumerate(sizes):
        where += [v] * k
    edges = [
        (i, j)
        for i in range(len(where))
        for j in range(i + 1, len(where))
        if (closed[where[i]] if where[i] == where[j] else has_edge(base, where[i], where[j]))
    ]
    return random_permuted(rng, from_edges(len(where), edges))


def test_twin_seeded_canonical_perm_matches_reference_on_planted_twins(rng):
    planted = 0
    for _ in range(40):
        base = random_graph(rng, rng.randint(1, 5), rng.random())
        g = _blown_up(rng, base, [rng.random() < 0.5 for _ in range(base.n)])
        planted += any(py.twin_pairs(g.adj))
        _assert_matches_reference(g.adj)
    assert planted


def test_twin_seeded_canonical_perm_on_vertex_transitive_bases(rng):
    # Two vertex-transitive bases of one degree side by side, each vertex a
    # twin class of one size and kind: the graph is regular, so refinement
    # splits nothing at the root, and not vertex-transitive, so a swap seeded
    # against the wrong vertex prunes branches whose codes differ.  (On
    # random bases refinement keeps each class a cell of its own, whose
    # branches a wrong swap cannot tell apart.)
    cycles = [Graph.cycle(k) for k in range(5, 10)]
    pairs = list(zip(cycles, cycles[1:])) + [(_petersen(), _prism(5))]
    for x, y in pairs:
        base = _disjoint_union(x, y)
        for closed in (False, True):
            g = _blown_up(rng, base, [closed] * base.n, [2] * base.n)
            assert sum(map(bool, py.twin_pairs(g.adj))) == base.n
            _assert_matches_reference(g.adj)


def test_twin_cell_collapse_matches_reference(rng):
    # random and vertex-transitive bases blown up by open or closed twin
    # classes of sizes 2-6, relabeled.  On the regular ones refinement splits
    # nothing at the root, so a twin class becomes a target cell of its own
    # only once one of its members is individualized.
    for _ in range(30):
        base = random_graph(rng, rng.randint(2, 5), rng.random())
        sizes = [rng.randint(1, 6) for _ in range(base.n)]
        g = _blown_up(rng, base, [rng.random() < 0.5 for _ in range(base.n)], sizes)
        _assert_matches_reference(g.adj)
    # K_{s,s,s} and three disjoint K_s, then cycles and prisms of twin
    # classes, kept small: the reference search is slow on larger ones
    cases = [(Graph.complete(3), (False,), range(2, 7)), (Graph.empty(3), (True,), range(2, 7))]
    cases += [(Graph.cycle(5), (False, True), range(2, 5)), (_prism(3), (False, True), (2, 3))]
    for base, kinds, sizes in cases:
        for closed in kinds:
            for size in sizes:
                g = _blown_up(rng, base, [closed] * base.n, [size] * base.n)
                _assert_matches_reference(g.adj)


def _twin_masks(adj):
    # each vertex's twin class as a mask, gathered as canonical_perm does
    twins = [1 << v for v in range(len(adj))]
    first = list(range(len(adj)))
    for v, p in enumerate(py.twin_pairs(adj)):
        if p:
            first[v] = first[p.bit_length() - 1]
            twins[first[v]] |= 1 << v
    return [twins[f] for f in first]


def test_refine_matches_the_reference_refinement(rng):
    # the ordered partition itself, not only canonical_perm's final
    # permutation: at the root, every cell fresh, then down a random path
    # of the search tree, individualizing one vertex of the equitable
    # partition at a time with only the split cell fresh
    nodes = 0
    for i in range(1000):
        base = random_graph(rng, rng.randint(1, 16 if i % 2 else 5), rng.random())
        g = base if i % 2 else _blown_up(rng, base, [rng.random() < 0.5 for _ in range(base.n)])
        adj = g.adj
        twins = _twin_masks(adj)
        full = (1 << g.n) - 1
        cells = _reference_refine(adj, [full])
        assert py._refine(adj, [full], full, twins) == cells, adj
        while len(cells) < g.n:
            ti = rng.choice([k for k, c in enumerate(cells) if c & (c - 1)])
            T = cells[ti]
            b = 1 << rng.choice(list(bits_of(T)))
            child = cells[:ti] + [b, T ^ b] + cells[ti + 1 :]
            cells = _reference_refine(adj, child)
            assert py._refine(adj, child, T, twins) == cells, (adj, child)
            nodes += 1
    assert nodes > 3000


def test_twin_cell_collapse_refines_only_at_the_root(monkeypatch):
    # the root cell of K_n or the empty graph is one twin class, split into
    # singletons with no further refinement
    calls = []
    refine = py._refine

    def counted(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(py, "_refine", counted)
    for n in range(2, 20):
        for g in (Graph.complete(n), Graph.empty(n)):
            calls.clear()
            assert py.canonical_perm(g.adj) == tuple(range(n))
            assert len(calls) == 1, (g.adj, len(calls))


def test_twin_seeded_canonical_perm_on_large_automorphism_groups(rng):
    # the seeded G(n, p) graphs on which the search once took seconds to
    # minutes; the reference search is too slow on the last two
    for n, p in ((25, 0.985), (20, 0.02), (30, 0.99), (35, 0.003)):
        g = random_graph(rng, n, p)
        perm = py.canonical_perm(g.adj)
        if n < 30:
            assert perm == canonical_perm_reference(g.adj), (n, p)
        if cy is not None:
            assert perm == cy.canonical_perm(g.adj), (n, p)
        code = py.edge_code(g.adj, perm)
        for _ in range(3):
            h = random_permuted(rng, g)
            assert py.edge_code(h.adj, py.canonical_perm(h.adj)) == code, (n, p)


def test_canonical_perm_jumps_back_on_a_repeated_leaf_code(monkeypatch):
    # A leaf with the best code so far maps the best leaf by an automorphism
    # fixing their common path prefix, so the search resumes at their
    # deepest common ancestor.  Without that rule these graphs take 11 and
    # 16 leaves.  The Petersen graph has no twins, so its count pins the
    # rule alone; K_12 less a perfect matching has six open twin pairs,
    # whose swaps the search knows from the start (7 leaves without them,
    # 32 without them and the rule).
    calls = []
    leaf_code = py.edge_code

    def counted(adj, perm):
        calls.append(perm)
        return leaf_code(adj, perm)

    monkeypatch.setattr(py, "edge_code", counted)
    assert not any(py.twin_pairs(_petersen().adj))
    for g, leaves in ((_petersen(), 5), (complete_less_matching(12), 6)):
        calls.clear()
        assert py.canonical_perm(g.adj) == canonical_perm_reference(g.adj)
        assert len(calls) == leaves


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs(12))
def test_canonical_perm_matches_reference_property(g):
    _assert_matches_reference(g.adj)


def test_backend_selection_env(monkeypatch):
    import importlib

    import folkman._kernels as K

    monkeypatch.setenv("FOLKMAN_PURE", "1")
    mod = importlib.reload(K)
    assert mod.impl.BACKEND == "python"
    monkeypatch.delenv("FOLKMAN_PURE")
    mod = importlib.reload(K)
    assert mod.backend_name() in ("python", "compiled")


def test_search_runs_on_pure_backend(rng):
    # swap the backend in place and run a tiny end-to-end generation
    import folkman._kernels as K

    old = K.impl
    K.impl = py
    try:
        from folkman.arrowing import ArrowVector
        from folkman.search import FamilySpec, complete_base, generate_family

        base = complete_base((3,), 8, 6, 3)
        out = generate_family(FamilySpec(ArrowVector((4,)), 8, 8, 2, 3), base)
        assert len(out.output) == 1
        assert len(out.plus_clique) == 1
    finally:
        K.impl = old
