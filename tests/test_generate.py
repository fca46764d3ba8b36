from collections import Counter

import pytest

from folkman import _kernels, _kernels_py
from folkman.canon import canonical_form
from folkman.cliques import (
    clique_number,
    has_clique,
    independence_number,
    is_plus_kt,
)
from folkman.generate import (
    _children,
    bounded_classes,
    maximal_family_exhaustive,
)
from folkman.graphs import Graph, to_graph6
from folkman.arrowing import arrows
from tests.conftest import available_backends, complete_less_matching
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


def test_last_level_lists_only_sets_holding_the_ends_and_scans_no_twins(monkeypatch):
    # The last level is the extension kernel at r = 1 (counted on the pure
    # twin, whose kernels call each other through its module's globals),
    # and it lists only the maximal K_{q-1}-free sets that hold the ends of
    # the deficient non-edges.  At q = 3 the maximal K_2-free sets are the
    # maximal independent sets.  C_5 has no deficient non-edge, so the keep
    # mask is 0.  K_1 + K_2 has the deficient non-edges 01 and 02, whose
    # ends hold the edge 12: no independent set contains them, so none is
    # listed.  At q = 4 the parent below, with the neighbourhoods 567, 567,
    # 467, 456, 2357, 01347, 01237 and 012456, has the deficient ends
    # {0, 1, 2, 3}, which hold no triangle.
    listed = []

    def counting_subsets(adj, t, keep):
        listed.append(keep)
        return real_subsets(adj, t, keep)

    real_subsets = _kernels_py.maximal_kt_free_subsets
    monkeypatch.setattr(_kernels_py, "maximal_kt_free_subsets", counting_subsets)
    cases = (
        (Graph.cycle(5), 3, 3, [0]),
        (Graph(3, [0, 0b100, 0b10]), 3, 3, [0b111]),
        (Graph(8, [0xE0, 0xE0, 0xD0, 0x70, 0xAC, 0x9B, 0x8F, 0x77]), 4, 4, [0b1111]),
    )
    for g, q, t, keeps in cases:
        listed.clear()
        _kernels_py.extension_lines(g.adj, (), q, 1, t)
        assert listed == keeps
    # a level scans the twin classes of each of its parents once; the last
    # level's parents, the children of level n - 2, get no scan (the
    # kernels call each other directly, so the proxy sees only the levels)
    kernels = _CountingKernels(_kernels_py)
    scanned = []

    def counting_twin_pairs(adj):
        scanned.append(adj)
        return _kernels_py.twin_pairs(adj)

    kernels.twin_pairs = counting_twin_pairs
    monkeypatch.setattr(_kernels, "impl", kernels)
    for avec, q, n, t in (((3,), 4, 7, 3), ((3,), 5, 8, 4)):
        want = sum(len(bounded_classes(k, q, t)) for k in range(n - 1))
        scanned.clear()
        maximal_family_exhaustive(avec, q, n, t)
        assert len(scanned) == want


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
# Around the cut below q vertices, where the answer is K_n when it arrows,
# (3) and (2, 3) at q = 5 and 6 on q - 2 to q + 1 vertices, t = 0 to 2:
# K_n arrows (3) from n = 3 and (2, 3) from n = 4.
EXHAUSTIVE_GRID = [((2, 2, 2), 4, n, 3) for n in range(8)] + [
    (avec, q, n, t)
    for avec in ((3,), (2, 3))
    for q in (5, 6)
    for n in range(q - 2, q + 2)
    for t in range(3)
] + [
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
    # The last vertex's neighbourhoods make every child edge-maximal, so no
    # child is tested for it.  The last level is one extension_lines call
    # at r = 1 per streamed parent, 1316 here, and a K_4 arrows (3), so the
    # vector goes as ().  Inside the pure twin's kernel neither is_plus_k
    # nor arrows runs, and 28 children are made for the 7 classes.
    kernels = _CountingKernels(available_backends()[backend])
    hosts = []
    inside = Counter()

    def extension_lines(adj, vec, q, r, t):
        hosts.append((vec, q, r, t))
        return kernels.impl.extension_lines(adj, vec, q, r, t)

    def counted(name):
        real = getattr(_kernels_py, name)

        def count(*args):
            inside[name] += 1
            return real(*args)

        return count

    kernels.extension_lines = extension_lines
    monkeypatch.setattr(_kernels, "impl", kernels)
    for name in ("is_plus_k", "arrows", "attach"):
        monkeypatch.setattr(_kernels_py, name, counted(name))
    assert len(maximal_family_exhaustive((3,), 5, 8, 4)) == 7
    assert kernels.calls["is_plus_k"] == 0
    assert hosts == [((), 5, 1, 4)] * 1316
    if backend == "python":
        assert inside == {"attach": 28}
