from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folkman._kernels_py import _deficient_cover, twin_pairs
from folkman.cliques import (
    clique_number,
    has_clique,
    independence_number,
    is_plus_kt,
    maximal_kt_free_subsets,
)
from folkman.graphs import Graph, GraphError, join
from folkman.search import attach_vertices
from tests.conftest import (
    add_edge,
    complete_less_matching,
    cone_vertex_count,
    from_edges,
    graphs,
    has_edge,
    non_edges,
    random_graph,
    remove_edge,
    strip_cone_vertices,
)
from tests.oracles import (
    clique_number_brute,
    edge_completes_new_clique,
    has_mono_clique,
    is_maximal_kq_free,
    maximal_ktfree_brute,
    maximal_ktfree_recursive,
    twin_classes_brute,
)


def edge_maximal_kq_free(rng, n, q):
    """A random edge-maximal K_q-free graph: edges in random order, each
    kept unless it completes a K_q."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = Graph.empty(n)
    for u, v in pairs:
        bigger = add_edge(g, u, v)
        if not has_clique(bigger, q):
            g = bigger
    return g


@st.composite
def graphs_and_thresholds(draw, max_n=10):
    g = draw(graphs(max_n))
    return g, draw(st.integers(2, max(g.n + 1, 2)))


def test_clique_number_basics():
    assert clique_number(Graph.complete(6)) == 6
    assert clique_number(Graph.cycle(5)) == 2
    assert clique_number(Graph.cycle(7).complement()) == 3
    assert clique_number(Graph.empty(0)) == 0


def test_independence_number():
    assert independence_number(Graph.cycle(5)) == 2
    assert independence_number(Graph.empty(7)) == 7
    assert independence_number(Graph.complete(4)) == 1


def test_alpha_equals_omega_of_complement(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 10), rng.random())
        assert independence_number(g) == clique_number(g.complement())


def test_clique_number_matches_brute_force(rng):
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 8), rng.random())
        assert clique_number(g) == clique_number_brute(g)


def test_has_clique():
    assert has_clique(Graph.complete(5), 5)
    assert not has_clique(Graph.cycle(5), 3)
    assert has_clique(Graph.empty(0), 0)
    assert has_clique(Graph.cycle(4), 0)
    with pytest.raises(GraphError):
        has_clique(Graph.cycle(4), -1)


def test_edge_completes_new_clique():
    c5 = Graph.cycle(5)
    assert edge_completes_new_clique(c5, 0, 2, 3)
    assert edge_completes_new_clique(Graph.empty(2), 0, 1, 2)
    p3 = from_edges(3, [(0, 1), (1, 2)])
    assert not edge_completes_new_clique(p3, 0, 2, 4)
    with pytest.raises(GraphError):
        edge_completes_new_clique(c5, 0, 1, 3)


def test_is_plus_kt():
    assert is_plus_kt(Graph.cycle(5), 3)
    assert is_plus_kt(Graph.complete(6), 3)
    assert is_plus_kt(Graph.complete(6), 9)
    assert not is_plus_kt(Graph.cycle(6), 3)


def test_is_plus_kt_matches_per_edge_definition(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), rng.random())
        for t in range(3, 6):
            expected = all(
                edge_completes_new_clique(g, u, v, t) for u, v in non_edges(g)
            )
            assert is_plus_kt(g, t) == expected


def test_maximality_in_family():
    c5c = Graph.cycle(5).complement()
    assert is_maximal_kq_free(c5c, 3)
    # K_{q-1} plus an isolated vertex is never maximal
    k2_plus_iso = from_edges(3, [(0, 1)])
    assert not is_maximal_kq_free(k2_plus_iso, 3)
    assert is_maximal_kq_free(Graph.complete(4), 5)
    with pytest.raises(GraphError):
        is_maximal_kq_free(Graph.complete(4), 3)


def test_is_plus_kt_matches_clique_count_oracle(rng):
    from itertools import combinations

    def count_cliques(g, t):
        return sum(
            1
            for sub in combinations(range(g.n), t)
            if all(has_edge(g, u, v) for u, v in combinations(sub, 2))
        )

    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        for t in (3, 4):
            expected = all(
                count_cliques(add_edge(g, u, v), t) > count_cliques(g, t)
                for u, v in non_edges(g)
            )
            assert is_plus_kt(g, t) == expected


def test_maximal_ktfree_examples():
    k4 = Graph.complete(4)
    subsets = maximal_kt_free_subsets(k4, 3)
    assert len(subsets) == 6
    assert all(bin(s).count("1") == 2 for s in subsets)

    assert maximal_kt_free_subsets(Graph.empty(5), 2) == [0b11111]

    c5 = Graph.cycle(5)
    mis = maximal_kt_free_subsets(c5, 2)
    assert mis == maximal_ktfree_brute(c5, 2)
    assert len(mis) == 5 and all(bin(s).count("1") == 2 for s in mis)

    # every vertex is a K_1, so the empty set is the one K_1-free set
    for g in (Graph.empty(0), Graph.empty(1), c5, k4):
        assert maximal_kt_free_subsets(g, 1) == [0] == maximal_ktfree_brute(g, 1)


def test_maximal_ktfree_matches_brute(rng):
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        for t in (2, 3, 4):
            assert maximal_kt_free_subsets(g, t) == maximal_ktfree_brute(g, t)


def test_maximal_ktfree_keep_matches_filtered_brute(rng):
    # with keep, exactly the maximal K_t-free sets that contain it; keep = 0
    # is the default, and a keep that holds a K_t is in none
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        for t in (2, 3, 4):
            brute = maximal_ktfree_brute(g, t)
            assert maximal_kt_free_subsets(g, t, 0) == brute
            for _ in range(3):
                keep = rng.getrandbits(g.n) & rng.getrandbits(g.n)
                want = [M for M in brute if M & keep == keep]
                assert maximal_kt_free_subsets(g, t, keep) == want, (g, t, keep)
            cliques = [
                sum(1 << v for v in c)
                for c in combinations(range(g.n), t)
                if all(has_edge(g, u, v) for u, v in combinations(c, 2))
            ]
            for clique in cliques[:3]:
                keep = clique | rng.getrandbits(g.n)
                assert maximal_kt_free_subsets(g, t, keep) == [], (g, t, keep)
    # keep = full: [full] on a K_t-free graph, [] when it holds a K_t
    for g, t in ((Graph.cycle(5), 3), (Graph.empty(4), 2), (Graph.empty(0), 2)):
        assert maximal_kt_free_subsets(g, t, g.full_mask()) == [g.full_mask()]
    for g, t in ((Graph.complete(4), 3), (Graph.cycle(5), 2)):
        assert maximal_kt_free_subsets(g, t, g.full_mask()) == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_and_thresholds())
@example((Graph.empty(0), 2))
@example((Graph.empty(7), 2))
@example((Graph.empty(7), 4))
@example((Graph.complete(1), 2))
@example((Graph.complete(6), 3))
@example((Graph.complete(9), 5))
@example((Graph.complete(10), 10))
@example((Graph.complete(5), 6))
@example((Graph.cycle(8), 3))
@example((Graph.cycle(9).complement(), 9))
def test_maximal_ktfree_property(case):
    g, t = case
    subsets = maximal_kt_free_subsets(g, t)
    assert subsets == maximal_ktfree_brute(g, t)
    # valid_multisets asks only the full mask for its K_{t-1}: the
    # complement of any other is a nonempty minimal transversal
    full = g.full_mask()
    assert all(has_mono_clique(g, M, t - 1) for M in subsets if M != full)


def test_maximal_ktfree_edge_maximal_hosts(rng):
    # the traffic shape: valid_multisets asks for maximal K_{q-1}-free sets
    # of edge-maximal K_q-free hosts, which have few (q-1)-cliques
    for _ in range(40):
        n = rng.randint(2, 10)
        t = rng.randint(2, n)
        g = edge_maximal_kq_free(rng, n, t + 1)
        assert maximal_kt_free_subsets(g, t) == maximal_ktfree_brute(g, t)


def test_maximal_ktfree_matches_recursive_at_larger_orders(rng):
    for n, t in ((13, 3), (14, 6), (15, 4), (16, 7)):
        g = edge_maximal_kq_free(rng, n, t + 1)
        assert maximal_kt_free_subsets(g, t) == maximal_ktfree_recursive(g, t)
        g = random_graph(rng, n, 0.5)
        assert maximal_kt_free_subsets(g, t) == maximal_ktfree_recursive(g, t)


def test_maximal_ktfree_rejects_small_threshold():
    for t in (-1, 0):
        with pytest.raises(GraphError):
            maximal_kt_free_subsets(Graph.cycle(5), t)


def test_deficient_cover_decides_plus_clique_at_r0_and_r1(rng):
    # r = 0: h is plus-K_q exactly when no non-edge is deficient; r = 1: h
    # plus one vertex on a maximal K_{q-1}-free set M is plus-K_q exactly
    # when M fixes every deficient non-edge.  Hosts are edge-maximal
    # K_q-free graphs less up to two edges, so both verdicts occur.
    for _ in range(60):
        n = rng.randint(0, 9)
        q = rng.randint(2, 5)
        h = edge_maximal_kq_free(rng, n, q)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if has_edge(h, u, v)]
        for u, v in rng.sample(edges, min(len(edges), rng.randint(0, 2))):
            h = remove_edge(h, u, v)
        need, fixes, ends = _deficient_cover(h.adj, q)
        assert (need == 0) == is_plus_kt(h, q) == (ends == 0)
        for M in maximal_kt_free_subsets(h, q - 1):
            assert (fixes(M) == need) == is_plus_kt(attach_vertices(h, [M]), q)
            # a set that fixes every deficient non-edge holds all their ends
            assert fixes(M) != need or M & ends == ends


def test_edge_monotonicity(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        gaps = list(non_edges(g))
        if not gaps:
            continue
        u, v = gaps[rng.randrange(len(gaps))]
        bigger = add_edge(g, u, v)
        assert clique_number(bigger) >= clique_number(g)
        assert independence_number(bigger) <= independence_number(g)


def test_cone_vertices():
    assert cone_vertex_count(Graph.complete(5)) == 5
    assert cone_vertex_count(Graph.cycle(5)) == 0
    w = join(Graph.complete(1), Graph.cycle(5))
    assert cone_vertex_count(w) == 1
    assert strip_cone_vertices(w) == Graph.cycle(5)


def _preceding(classes, n):
    # preceding-twin bits from twin classes given as ascending vertex lists
    out = [0] * n
    for cls in classes:
        for a, b in zip(cls, cls[1:]):
            out[b] = 1 << a
    return out


def test_twin_pairs_examples():
    k333 = join(join(Graph.empty(3), Graph.empty(3)), Graph.empty(3))
    star = join(Graph.empty(1), Graph.empty(5))
    cases = [
        (Graph.complete(6), [range(6)]),  # one closed class
        (k333, [range(0, 3), range(3, 6), range(6, 9)]),  # three open classes
        (complete_less_matching(12), [(v, v + 6) for v in range(6)]),  # open pairs
        (Graph.cycle(5), []),
        (Graph.empty(7), [range(7)]),
        (Graph.empty(0), []),
        (star, [range(1, 6)]),  # the leaves; the centre stands alone
    ]
    for g, classes in cases:
        want = _preceding([list(c) for c in classes], g.n)
        assert twin_pairs(g.adj) == want, g
        assert twin_pairs(g.adj) == _preceding(twin_classes_brute(g), g.n), g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs(9))
@example(Graph.complete(2))
@example(join(Graph.complete(3), Graph.empty(3)))
def test_twin_pairs_matches_definition(g):
    assert twin_pairs(g.adj) == _preceding(twin_classes_brute(g), g.n)
