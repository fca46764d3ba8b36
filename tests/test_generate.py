from collections import Counter

import pytest

from folkman import _kernels, generate
from folkman.canon import canonical_form
from folkman.cliques import (
    clique_number,
    deficient_cover,
    has_clique,
    independence_number,
    is_plus_kt,
    maximal_kt_free_subsets,
    twin_pairs,
)
from folkman.generate import (
    _children,
    bounded_classes,
    maximal_family_exhaustive,
)
from folkman.graphs import Graph, bits_of, to_graph6
from folkman.arrowing import arrows
from tests.conftest import available_backends, complete_less_matching, random_graph
from tests.oracles import (
    bounded_classes_reference,
    graph_classes,
    has_independent_set,
    maximal_family_reference,
    ramsey_graphs,
)


def test_class_counts_small():
    assert [len(graph_classes(n)) for n in range(0, 7)] == [1, 1, 2, 4, 11, 34, 156]


def test_class_counts_order_8():
    # OEIS A000088; and the three (3, 4)-Ramsey graphs on 8 vertices
    assert len(graph_classes(8)) == 12346
    assert len(ramsey_graphs(3, 4, 8)) == 3


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_bounded_classes_match_unfiltered_reference(backend, monkeypatch):
    # attaching only vertices of largest degree keeps every class that
    # attaching every vertex keeps
    monkeypatch.setattr(_kernels, "impl", available_backends()[backend])
    for n in range(8):
        for q, t in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 4), (9, 8)):
            want = [to_graph6(g) for g in bounded_classes_reference(n, q, t)]
            got = [to_graph6(g) for g in bounded_classes(n, q, t)]
            assert got == want, (n, q, t)


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_bounded_classes_match_reference_on_twin_rich_levels(backend, monkeypatch):
    # attaching by one neighbourhood per twin-swap orbit keeps every class on
    # levels full of twins: K_8 less a perfect matching and coned graphs
    # have clique number below 5 and independence number at most 2
    monkeypatch.setattr(_kernels, "impl", available_backends()[backend])
    want = [to_graph6(g) for g in bounded_classes_reference(8, 5, 2)]
    got = [to_graph6(g) for g in bounded_classes(8, 5, 2)]
    assert got == want
    assert canonical_form(complete_less_matching(8)) in got


class _CountingKernels:
    """The current kernels, counting has_clique_within calls by the clique
    size they look for, and is_plus_k calls under "is_plus_k"."""

    def __init__(self, impl):
        self.impl = impl
        self.calls = Counter()

    def has_clique_within(self, adj, mask, t):
        self.calls[t] += 1
        return self.impl.has_clique_within(adj, mask, t)

    def is_plus_k(self, adj, q):
        self.calls["is_plus_k"] += 1
        return self.impl.is_plus_k(adj, q)

    def __getattr__(self, name):
        return getattr(self.impl, name)


def test_twin_swaps_leave_one_neighbourhood_per_orbit(monkeypatch):
    # all k vertices of the empty graph are twins, so a neighbourhood is
    # fixed up to a swap by its size: k + 1 of the 2^k reach the clique
    # test (a K_{k+2} in the neighbourhood at q = k + 3), the first of the
    # two bound tests, and with these slack bounds all k + 1 are attached
    kernels = _CountingKernels(_kernels.impl)
    monkeypatch.setattr(_kernels, "impl", kernels)
    for k in range(1, 8):
        kernels.calls.clear()
        children = list(_children([Graph.empty(k).adj], k + 3, k + 1))
        assert kernels.calls[k + 2] == k + 1
        assert sorted(adj[k] for adj in children) == [(1 << s) - 1 for s in range(k + 1)]
    # C_5 has no twins: each of the 16 neighbourhoods of three or more
    # vertices passes the degree tests and reaches the clique test
    kernels.calls.clear()
    assert len(list(_children([Graph.cycle(5).adj], 7, 5))) == 16
    assert kernels.calls[6] == 16


def test_maximal_children_pass_the_degree_test_first_and_scan_no_twins(monkeypatch):
    # At q = 3 the maximal K_2-free sets are the maximal independent sets.
    # C_5 has no deficient non-edge and five such sets, all pairs, whose
    # vertices would get degree 3 against the new vertex's 2, so none
    # reaches the independence test (t = 3).  K_1 + K_2 has the deficient
    # non-edges 01 and 02, whose ends hold the edge 12: no independent set
    # contains them, so none is listed and none tested.
    # At q = 4 the parent below, with the neighbourhoods 567, 567, 467, 456,
    # 2357, 01347, 01237 and 012456, has the deficient ends {0, 1, 2, 3},
    # which hold no triangle, and three maximal triangle-free
    # sets contain them.  {0, 1, 2, 3, 7} gives 7 degree 6 against the new
    # vertex's 5; with {0, 1, 2, 3, 4, 6} the new vertex and 7 both get
    # degree 6, and 7's neighbours' degrees sum to 23 + 5 = 28 against the
    # new vertex's 27; {0, 1, 2, 3, 5, 6} ties 7, 5 and 6 at degree 6 and
    # sum 28 and reaches the independence test (t = 4).  Each set holds
    # both of the twins 0 and 1.  The last level builds no twin classes
    # (the twins lemma of folkman.generate); a level builds them once per
    # parent.  (The last level asks the kernel for the sets, so the
    # counting kernels record the keep mask of each call.)
    kernels = _CountingKernels(_kernels.impl)
    listed = []
    scanned = []

    def counting_subsets(adj, t, keep):
        listed.append(keep)
        return real_subsets(adj, t, keep)

    def counting_twin_pairs(adj):
        scanned.append(adj)
        return twin_pairs(adj)

    real_subsets = kernels.maximal_kt_free_subsets
    kernels.maximal_kt_free_subsets = counting_subsets
    monkeypatch.setattr(_kernels, "impl", kernels)
    monkeypatch.setattr(generate, "twin_pairs", counting_twin_pairs)
    cases = (
        (Graph.cycle(5), 3, 3, [0], 0),
        (Graph(3, [0, 0b100, 0b10]), 3, 3, [0b111], 0),
        (Graph(8, [0xE0, 0xE0, 0xD0, 0x70, 0xAC, 0x9B, 0x8F, 0x77]), 4, 4, [0b1111], 1),
    )
    for g, q, t, keeps, tested in cases:
        kernels.calls.clear()
        listed.clear()
        list(_children([g.adj], q, t, maximal=True))
        assert listed == keeps
        assert kernels.calls[t] == tested
        assert scanned == []
        list(_children([g.adj], q, t))
        assert scanned == [g.adj]
        scanned.clear()


def _with_twins(rng, g):
    """g with a few random vertices made open or closed twins of others."""
    adj = list(g.adj)
    for _ in range(rng.randrange(g.n)):
        u, v = rng.sample(range(g.n), 2)
        # N(u) = N(v), or with v added N[u] = N[v]
        row = adj[v] & ~(1 << u) | (1 << v if rng.random() < 0.5 else 0)
        adj = [r & ~(1 << u) | (1 << u if row >> w & 1 else 0) for w, r in enumerate(adj)]
        adj[u] = row
    return Graph(g.n, adj)


def test_last_level_sets_that_pass_the_degree_test_are_unions_of_twin_classes(rng):
    # the twins lemma of folkman.generate, on random twin-rich K_q-free
    # parents: a maximal K_{q-1}-free set that holds the deficient ends and
    # whose vertices all have degree below its size meets every twin class
    # in all or none of it; without the degree test some sets split one
    whole_classes = split = 0
    for q in range(3, 7):
        for _ in range(300):
            g = _with_twins(rng, random_graph(rng, rng.randrange(1, 10), rng.random()))
            if has_clique(g, q):
                continue
            _, _, ends = deficient_cover(g.adj, q)
            pairs = [(1 << v, p) for v, p in enumerate(twin_pairs(g.adj)) if p]
            for m in maximal_kt_free_subsets(g, q - 1, ends):
                union = all(bool(m & b) == bool(m & p) for b, p in pairs)
                if all(g.adj[v].bit_count() < m.bit_count() for v in bits_of(m)):
                    assert union, (q, g.adj, m)
                    whole_classes += any(m & b for b, _ in pairs)
                else:
                    split += not union
    assert whole_classes and split


def test_bounded_classes_match_filtered_full_enumeration():
    """Both sides come from the child loop with the largest-degree rule
    (``graph_classes`` is ``bounded_classes`` with slack bounds), so this
    checks the bound pruning, not the rule; the rule is checked against
    ``bounded_classes_reference``."""
    for n in range(1, 7):
        for q, t in ((3, 2), (4, 3), (5, 4)):
            full = [
                g
                for g in graph_classes(n)
                if not has_clique(g, q) and not has_independent_set(g, t + 1)
            ]
            bounded = bounded_classes(n, q, t)
            assert {canonical_form(g) for g in full} == {
                canonical_form(g) for g in bounded
            }


def test_ramsey_graph_counts():
    # below the diagonal Ramsey number 6 there is exactly one extremal shape
    assert len(ramsey_graphs(3, 3, 5)) == 1
    assert canonical_form(ramsey_graphs(3, 3, 5)[0]) == canonical_form(Graph.cycle(5))
    assert ramsey_graphs(3, 3, 6) == []


def test_unique_13_vertex_witness():
    gs = ramsey_graphs(5, 3, 13)
    assert len(gs) == 1
    q = gs[0]
    assert clique_number(q) == 4
    assert independence_number(q) == 2
    assert arrows(q, (2, 2, 4))
    assert is_plus_kt(q, 5)


def test_shipped_witness_file_matches_derivation():
    from pathlib import Path

    shipped = Path(__file__).resolve().parents[1] / "configs" / "q13.g6"
    line = shipped.read_text().strip()
    assert line == canonical_form(ramsey_graphs(5, 3, 13)[0])


def test_exhaustive_maximal_family_members_are_valid():
    fam = maximal_family_exhaustive((3,), 4, 6, 3)
    assert len(fam) > 0
    for g in fam:
        assert has_clique(g, 3)
        assert not has_clique(g, 4)
        assert not has_independent_set(g, 4)
        assert is_plus_kt(g, 4)


def test_complete_base_matches_exhaustive():
    # on few vertices the exhaustive route degenerates to the complete graph
    fam = maximal_family_exhaustive((3,), 8, 6, 3)
    assert fam.lines() == [canonical_form(Graph.complete(6))]


# q = 2..6, t = 1..4 and every order up to 7 for (2, 2, 2).  Candidates for
# (2, 2, 2) and (2, 3) at q = 4 and for (2, 2, 2, 2) at q = 5 have clique
# number at least p and below m, so their arrowing runs free_partition.
# At q = 2 the new vertex's one neighbourhood is the empty set, the only
# K_1-free set, and at q = 3 the fix test asks for a K_0, always present.
EXHAUSTIVE_GRID = [((2, 2, 2), 4, n, 3) for n in range(8)] + [
    (avec, q, n, t)
    for avec, q in (((1,), 2), ((2,), 3), ((2, 2), 3))
    for n in range(5)
    for t in range(1, 4)
] + [
    ((2, 2), 4, 7, 3),
    ((2, 3), 4, 8, 3),
    ((3,), 4, 8, 3),
    ((2, 3), 5, 7, 3),
    ((2, 2, 2, 2), 5, 7, 3),
    ((4,), 5, 7, 4),
    ((3,), 5, 6, 1),
    ((3,), 6, 8, 2),
    ((2, 3), 6, 7, 3),
    ((2, 2), 6, 7, 4),
    ((3,), 5, 8, 4),
]


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_exhaustive_final_level_filter_matches_reference(backend, monkeypatch):
    # attaching the last vertex by the maximal K_{q-1}-free sets that fix
    # every deficient non-edge keeps exactly the classes that filtering
    # every labeled class by the plus-clique test keeps
    monkeypatch.setattr(_kernels, "impl", available_backends()[backend])
    for avec, q, n, t in EXHAUSTIVE_GRID:
        want = maximal_family_reference(avec, q, n, t).lines()
        assert maximal_family_exhaustive(avec, q, n, t).lines() == want, (avec, q, n, t)


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_exhaustive_final_level_runs_no_plus_clique_test(backend, monkeypatch):
    # the last vertex's neighbourhoods make every child edge-maximal, so no
    # child is tested for it; the degree and twin tests still run on them
    # and here leave one child per class for the arrowing test
    kernels = _CountingKernels(available_backends()[backend])
    arrowed = []

    def arrows_adj(adj, entries):
        arrowed.append(adj)
        return real_arrows_adj(adj, entries)

    real_arrows_adj = generate.arrows_adj
    monkeypatch.setattr(_kernels, "impl", kernels)
    monkeypatch.setattr(generate, "arrows_adj", arrows_adj)
    assert len(maximal_family_exhaustive((3,), 5, 8, 4)) == 7
    assert kernels.calls["is_plus_k"] == 0
    assert len(arrowed) == 7
