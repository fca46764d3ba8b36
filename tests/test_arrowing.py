import pytest

from folkman.arrowing import (
    ArrowVector,
    arrows,
    canonicalize,
    clique_arrows,
    find_free_partition,
)
from folkman.cliques import clique_number
from folkman.graphs import Graph, GraphError, join
from tests.conftest import add_edge, delete_vertices, induced, non_edges, random_graph
from tests.oracles import arrows_after_deletion, arrows_brute


def test_canonical_form_of_vectors():
    assert canonicalize((7, 1, 2)).entries == (2, 7)
    v = canonicalize((2, 2, 7))
    assert v.entries == (2, 2, 7) and v.m == 9 and v.p == 7
    v = canonicalize((3, 3))
    assert v.entries == (3, 3) and v.m == 5 and v.p == 3
    assert canonicalize((1, 1)).entries == ()


def test_vector_invariants_under_canonicalization():
    raw = ArrowVector((3, 1, 2, 7, 1))
    assert raw.canonical().m == raw.m
    assert raw.canonical().p == raw.p


def test_vector_parse_and_errors():
    assert ArrowVector.parse("2, 2, 7").entries == (2, 2, 7)
    assert ArrowVector.parse("2 2 7").entries == (2, 2, 7)
    with pytest.raises(GraphError):
        ArrowVector((0, 2))


def test_complete_graph_threshold():
    v = (2, 3)
    m = 4
    assert arrows(Graph.complete(m), v)
    assert not arrows(Graph.complete(m - 1), v)


def test_clique_arrows_is_the_clique_threshold(rng):
    # true exactly when K_k arrows the vector, and then every graph with a
    # planted K_k arrows it too; at one entry, omega(G) >= a
    vectors = [(), (2,), (3,), (6,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)]
    implied = 0
    for entries in vectors:
        for k in range(8):
            assert clique_arrows(entries, k) == arrows(Graph.complete(k), entries), (entries, k)
    for _ in range(60):
        n = rng.randint(3, 9)
        k = rng.randint(1, n)
        adj = list(random_graph(rng, n, rng.choice((0.2, 0.5))).adj)
        planted = rng.sample(range(n), k)
        for u in planted:
            for v in planted:
                if u != v:
                    adj[u] |= 1 << v
        g = Graph(n, adj)
        for entries in vectors:
            if clique_arrows(entries, k):
                implied += 1
                assert arrows(g, entries), (entries, k, g.adj)
    assert implied


def test_c5_arrows_22():
    assert arrows(Graph.cycle(5), (2, 2))
    assert not arrows(Graph.cycle(4), (2, 2))


def test_c7_complement_arrows_23():
    g = Graph.cycle(7).complement()
    assert clique_number(g) == 3
    assert arrows(g, (2, 3))


def test_single_entry_is_clique_check():
    for n in range(1, 7):
        g = Graph.complete(n)
        assert arrows(g, (n,)) and not arrows(g, (n + 1,))


def test_empty_vector_arrows_everything():
    assert arrows(Graph.empty(3), ())
    assert arrows(Graph.empty(0), ())
    assert arrows(Graph.cycle(5), (1, 1))


def test_find_free_partition_witnesses():
    k3 = Graph.complete(3)
    classes = find_free_partition(k3, (2, 3))
    assert classes is not None
    total = 0
    for mask, a in zip(classes, (2, 3)):
        assert clique_number(induced(k3, mask)) < a
        total |= mask
    assert total == k3.full_mask()

    assert find_free_partition(Graph.cycle(5), (2, 2)) is None

    classes = find_free_partition(Graph.empty(5), (2, 2))
    assert classes is not None and classes[0] | classes[1] == 0b11111


def test_witness_respects_one_entries():
    g = Graph.cycle(4)
    classes = find_free_partition(g, (1, 2, 2))
    assert classes is not None
    assert classes[0] == 0


def test_no_witness_for_trivial_vectors():
    assert find_free_partition(Graph.empty(3), ()) is None
    assert find_free_partition(Graph.empty(0), (1, 1)) is None


def test_permutation_and_one_dropping(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert arrows(g, (2, 3)) == arrows(g, (3, 2))
        assert arrows(g, (2, 3)) == arrows(g, (2, 1, 3))


def test_matches_exhaustive_oracle(rng):
    for _ in range(120):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random())
        s = rng.randint(1, 3)
        entries = tuple(rng.randint(2, 4) for _ in range(s))
        assert arrows(g, entries) == arrows_brute(g, entries), (g, entries)


def test_edge_monotone(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        gaps = list(non_edges(g))
        if not gaps or not arrows(g, (2, 2)):
            continue
        u, v = gaps[0]
        assert arrows(add_edge(g, u, v), (2, 2))


def test_deletion_law():
    k4 = Graph.complete(4)
    assert arrows_after_deletion(k4, (2, 3), 0, {0})
    # against direct evaluation on random graphs
    import random

    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.random())
        if not arrows(g, (2, 2)):
            continue
        # every single vertex is an independent set
        v = rng.randrange(g.n)
        assert arrows_after_deletion(g, (2, 2), 0, {v}) == arrows(
            delete_vertices(g, 1 << v), (1, 2)
        )
        assert arrows_after_deletion(g, (2, 2), 0, {v})


def test_deletion_law_rejects_dependent_sets():
    with pytest.raises(GraphError):
        arrows_after_deletion(Graph.complete(3), (2, 2), 0, {0, 1})
    with pytest.raises(GraphError):
        arrows_after_deletion(Graph.complete(3), (2, 2), 5, {0})


def test_join_law(rng):
    # if the (r+1)-fold independent join arrows, so does the single-apex join
    for _ in range(25):
        h = random_graph(rng, rng.randint(1, 5), rng.random())
        fat = join(Graph.empty(3), h)
        thin = join(Graph.complete(1), h)
        for entries in ((2, 2), (2, 3)):
            if arrows(fat, entries):
                assert arrows(thin, entries)
