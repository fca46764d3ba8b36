import multiprocessing
import os
import pickle
import random
import select
import signal
import socket
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkman import _kernels, _kernels_py
from folkman.arrowing import ArrowVector, arrows, clique_arrows
from folkman.canon import GraphSet, canonical_form, canonical_line, graph_set_of
from folkman.cliques import (
    clique_number,
    has_clique,
    independence_number,
    is_plus_kt,
    maximal_kt_free_subsets,
)
from folkman.generate import maximal_family_exhaustive
from folkman.graphs import (
    Graph,
    GraphError,
    bits_of,
    from_graph6,
    graph6_lines,
    join,
    to_graph6,
)
from folkman import search
from folkman.search import (
    FamilySpec,
    _descent_worker,
    _dispatch,
    _extension_worker,
    attach_vertices,
    complete_base,
    generate_family,
    generate_family_cone_split,
    plus_clique_descent,
    valid_multisets,
    worker_pool,
)
from tests.conftest import (
    available_backends,
    complete_less_matching,
    cone_vertex_count,
    degree,
    delete_vertices,
    edge_count,
    from_edges,
    graphs,
    has_edge,
    induced,
    non_edges,
    random_permuted,
    remove_edge,
)
from tests.oracles import (
    coned_outputs_reference,
    descent_worker_reference,
    has_independent_set,
    maximal_family_reference,
    plus_clique_descent_reference,
    twin_swap_edge_orbits,
    valid_multisets_reference,
)


def spec(avec, q, n, r, t):
    return FamilySpec(ArrowVector(avec), q, n, r, t)


def test_family_spec_validation():
    with pytest.raises(GraphError):
        spec((7,), 7, 10, 2, 3)  # q must exceed the peak
    with pytest.raises(GraphError):
        spec((3,), 4, 6, 1, 3)  # r below 2
    with pytest.raises(GraphError):
        spec((3,), 4, 6, 4, 3)  # r above t
    s = spec((2, 2, 7), 9, 17, 2, 3)
    assert s.decremented().entries == (2, 7)
    assert spec((2, 7), 8, 16, 2, 3).decremented().entries == (7,)


def test_input_and_cone_families_follow_the_chain_rule():
    # the step's input: decremented vector on n - r vertices; the cone
    # split's second input: the same vector, clique bound q - 1, n - 1
    s = spec((2, 2, 7), 9, 17, 3, 3)
    assert s.input_family() == ((2, 7), 9, 14, 3)
    assert s.cone_family() == ((2, 7), 8, 16, 3)


def test_generate_family_rejects_seeds_of_the_wrong_order():
    sp = spec((3,), 4, 8, 2, 3)
    seeds = maximal_family_exhaustive((2,), 4, 5, 3)
    assert len(seeds)
    with pytest.raises(GraphError, match="^input family must have 6 vertices, found 5$"):
        generate_family(sp, seeds)


def test_cone_split_rejects_seeds_or_cone_seeds_of_the_wrong_order():
    sp = spec((3,), 4, 8, 2, 3)
    seeds = maximal_family_exhaustive((2,), 4, 6, 3)
    cone_seeds = maximal_family_exhaustive((2,), 3, 7, 3)
    short_cone_seeds = maximal_family_exhaustive((2,), 3, 6, 3)
    assert len(short_cone_seeds)
    with pytest.raises(GraphError, match="^cone input family must have 7 vertices, found 6$"):
        generate_family_cone_split(sp, seeds, short_cone_seeds)
    with pytest.raises(GraphError, match="^input family must have 6 vertices, found 7$"):
        generate_family_cone_split(sp, cone_seeds, cone_seeds)


def test_complete_base():
    assert complete_base((3,), 8, 6, 3).lines() == [canonical_form(Graph.complete(6))]
    with pytest.raises(GraphError):
        complete_base((3,), 8, 9, 3)  # n beyond q - 1
    with pytest.raises(GraphError):
        complete_base((2, 2), 8, 6, 3)  # not single-entry


def test_attach_vertices():
    h = Graph.empty(3)
    g = attach_vertices(h, [0b111, 0b111])
    # two new vertices joined to everything, not to each other
    assert g.n == 5
    assert sorted(degree(g, v) for v in range(5)) == [2, 2, 2, 3, 3]
    assert induced(g, 0b111) == h
    assert not has_edge(g, 3, 4)


def test_attach_capacity():
    with pytest.raises(GraphError):
        attach_vertices(Graph.empty(63), [0, 0])


def test_valid_multisets_on_complete_host():
    # On K_{q-1} every maximal K_{q-1}-free subset is a (q-2)-set; distinct
    # pairs intersect too thinly, so only repeated pairs survive.
    q = 5
    h = Graph.complete(q - 1)
    subsets = maximal_kt_free_subsets(h, q - 1)
    assert all(bin(s).count("1") == q - 2 for s in subsets)
    out = valid_multisets(h, q, 2, 3)
    assert all(a == b for a, b in out)
    assert len(out) == len(subsets)


def test_valid_multisets_on_empty_host():
    h = Graph.empty(3)
    out = valid_multisets(h, 3, 2, 3)
    assert out == [(0b111, 0b111)]


def test_valid_multisets_residue_condition():
    # two vertices attached to all of K7 would leave an independent 3-set
    # with the spare vertex, so the window t = 2 rejects every multiset
    assert valid_multisets(Graph.complete(7), 8, 2, 2) == []


HOSTS_H6_8_12 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "plusk_h6_8_12_t3.g6"


def _multisets_match_reference(h, q, r, t):
    # under every available backend; the autouse fixture restores the default
    for kernels in available_backends().values():
        _kernels.impl = kernels
        assert valid_multisets(h, q, r, t) == valid_multisets_reference(h, q, r, t), (
            kernels.BACKEND, to_graph6(h), q, r, t,
        )


def _deficient_pairs(h, q):
    return [
        (x, y)
        for x in range(h.n)
        for y in range(x + 1, h.n)
        if not has_edge(h, x, y)
        and not _kernels.impl.has_clique_within(h.adj, h.adj[x] & h.adj[y], q - 2)
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    graphs(8),
    st.sampled_from((3, 4, 5)),
    st.sampled_from((0, 1, 2, 3)),
    st.integers(0, 3),
)
def test_valid_multisets_match_reference_on_random_hosts(h, q, r, slack):
    # the cover lemma holds for any host: filtering by is_plus_k after the
    # search returns the same multisets in the same order (at r = 1 the
    # only slot is the last one, at r = 0 there is none)
    _multisets_match_reference(h, q, r, r + slack)


@pytest.mark.parametrize("r", (2, 3))
def test_valid_multisets_match_reference_on_h6_8_12_hosts(r):
    lines = list(graph6_lines(HOSTS_H6_8_12))
    hits = 0
    for line in random.Random(r).sample(lines, 100):
        h = from_graph6(line)
        _multisets_match_reference(h, 8, r, 3)
        hits += bool(valid_multisets(h, 8, r, 3))
    assert hits


EXTENSION_H7_8_14 = HOSTS_H6_8_12.with_name("extension_h7_8_14_t3.txt")


def test_extension_lines_twins_match_the_recorded_table():
    # every host of the benchmark's H(6; 8; 12) plus-clique set extended to
    # H(7; 8; 14) at r = 2, t = 3: a K_7 arrows (7), so the extension
    # passes () as the vector; passing (7) anyway tests arrowing and keeps
    # every line
    table = {}
    for row in graph6_lines(EXTENSION_H7_8_14):
        host, *outs = row.split(" ")
        table[host] = sorted(outs)
    assert list(table) == list(graph6_lines(HOSTS_H6_8_12)) and len(table) == 3104
    outputs = 0
    for host, want in table.items():
        adj = from_graph6(host).adj
        for name, kernels in available_backends().items():
            for vec in ((), (7,)):
                assert kernels.extension_lines(adj, vec, 8, 2, 3) == want, (name, vec, host)
        outputs += len(want)
    assert outputs == 1379


def test_valid_multisets_without_deficient_pairs():
    # every non-edge already completes a K_q in h, so nothing is cut:
    # C_5 at q = 3, K_6 less a perfect matching at q = 4
    for h, q in ((Graph.cycle(5), 3), (complete_less_matching(6), 4)):
        assert not _deficient_pairs(h, q)
        for r in (0, 1, 2, 3):
            assert valid_multisets(h, q, r, r + 2)
            _multisets_match_reference(h, q, r, r + 2)


def test_valid_multisets_with_an_unfixable_deficient_pair():
    # K_3 plus an isolated vertex at q = 4: the isolated vertex shares no
    # neighbour with the triangle, so no new vertex can fix those non-edges
    h = from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert _deficient_pairs(h, 4) == [(0, 3), (1, 3), (2, 3)]
    for r in (0, 1, 2, 3):
        assert valid_multisets(h, 4, r, 3) == []
        _multisets_match_reference(h, 4, r, 3)


def test_valid_multisets_need_a_k_q_minus_2_in_each_set():
    # K_m at q = m + 3 has no deficient non-edge, and its one maximal
    # K_{q-1}-free set, all of it, holds no K_{q-2}: two new vertices on it
    # would share no K_{q-2}, so no multiset is valid
    for m in range(4):
        h = Graph.complete(m)
        for r in (1, 2):
            assert valid_multisets_reference(h, m + 3, r, 3) == []
            _multisets_match_reference(h, m + 3, r, 3)


def _expect_no_multiset(backend, adj, q, r, t):
    assert available_backends()[backend].valid_multisets(adj, q, r, t) == []


def test_valid_multisets_stop_at_the_root_when_no_multiset_can_cover():
    # An isolated vertex z lies in every maximal triangle-free set and
    # shares no neighbour with any vertex, so no set fixes the deficient
    # non-edges at z (q = 4).  The other vertices are a cone c over an
    # isolated f and five disjoint edges: the 32 sets c + f + z plus one
    # end of each edge pairwise meet in the edge cf, and no residue fails
    # at t = 20.  The search must stop at its first slot: past it, it
    # would visit the hundreds of millions of 9-slot multisets of those
    # sets, 512 residue unions each, so each backend gets 60 s in a
    # process of its own.
    z, c, f = 0, 1, 2
    edges = [(c, v) for v in range(f, 13)] + [(v, v + 1) for v in range(3, 13, 2)]
    h = from_edges(13, edges)
    assert len(maximal_kt_free_subsets(h, 3)) == 33
    assert all(m >> z & 1 for m in maximal_kt_free_subsets(h, 3))
    for backend in available_backends():
        proc = multiprocessing.get_context("fork").Process(
            target=_expect_no_multiset, args=(backend, h.adj, 4, 10, 20)
        )
        proc.start()
        proc.join(60)
        if proc.is_alive():
            proc.terminate()
            proc.join()
        assert proc.exitcode == 0, backend


def test_valid_multisets_at_q3_fix_by_containment():
    # at q = 3 a set fixes a deficient pair when it holds both ends
    hosts = (
        Graph.empty(3),
        from_edges(3, [(0, 2)]),
        from_edges(5, [(0, 4), (1, 2), (1, 3), (2, 3), (2, 4)]),
        from_edges(6, [(0, 5), (1, 5), (2, 5)]),
    )
    for h in hosts:
        deficient = _deficient_pairs(h, 3)
        assert deficient
        for r in (2, 3):
            out = valid_multisets(h, 3, r, r + 2)
            assert out
            _multisets_match_reference(h, 3, r, r + 2)
            for masks in out:
                for x, y in deficient:
                    assert any(m >> x & m >> y & 1 for m in masks)


def test_conditions_match_unfiltered_construction():
    # constructing from every r-multiset and filtering full membership gives
    # the same family as pre-filtering with the two conditions
    for avec, q, n, r, t in (
        ((3,), 4, 5, 2, 3),
        ((3,), 4, 6, 2, 2),
        ((4,), 5, 7, 2, 3),
    ):
        s = spec(avec, q, n, r, t)
        seeds = maximal_family_exhaustive(s.decremented().entries, q, n - r, t)
        hosts = plus_clique_descent(seeds, s.decremented(), q, t)
        fast = generate_family(s, seeds).output

        slow = GraphSet()
        for h in hosts:
            subsets = maximal_kt_free_subsets(h, q - 1)
            l = len(subsets)
            for i in range(l):
                for j in range(i, l):
                    g = attach_vertices(h, (subsets[i], subsets[j]))
                    if (
                        is_plus_kt(g, q)
                        and arrows(g, avec)
                        and not has_independent_set(g, t + 1)
                    ):
                        slow.insert(g)
        assert fast.lines() == slow.lines(), (avec, q, n)


def test_descent_seed_validation():
    seeds = graph_set_of([Graph.complete(5)])
    with pytest.raises(GraphError, match="seed has a K_5"):
        plus_clique_descent(seeds, (3,), 5, 3)
    # K_4 plus an isolated vertex
    seeds = graph_set_of([from_edges(5, Graph.complete(4).edges())])
    with pytest.raises(GraphError, match="seed has independence number above 1"):
        plus_clique_descent(seeds, (3,), 5, 1)
    seeds = graph_set_of([Graph.empty(4)])
    with pytest.raises(GraphError, match="seed has independence number above 3"):
        plus_clique_descent(seeds, (3,), 5, 3)
    seeds = graph_set_of([Graph.cycle(5)])
    with pytest.raises(GraphError, match=r"seed does not arrow \(3\)"):
        plus_clique_descent(seeds, (3,), 5, 3)


def test_descent_seeds_of_another_order_fail_the_family_check():
    # the first seed, K_3 (lines sort by vertex count first), fixes the
    # family's order; C_4 is a member of H(2; 4; 4) but not of H(2; 4; 3)
    seeds = graph_set_of([Graph.cycle(4), Graph.complete(3)])
    with pytest.raises(GraphError, match="^seed has 4 vertices, family has 3$"):
        plus_clique_descent(seeds, (2,), 4, 3)


# q = 4..6 and multi-entry vectors
DESCENT_CONFIGS = (
    ((3,), 5, 7, 3),
    ((3,), 4, 7, 3),
    ((2, 2), 4, 7, 3),
    ((4,), 6, 7, 3),
    ((2, 3), 6, 7, 3),
)


def test_descent_members_are_plus_clique_family_members():
    from folkman.generate import bounded_classes

    for avec, q, n, t in DESCENT_CONFIGS:
        base = maximal_family_exhaustive(avec, q, n, t)
        got = plus_clique_descent(base, avec, q, t)
        for g in got:
            assert is_plus_kt(g, q - 1)
            assert arrows(g, avec) and not has_clique(g, q)
            assert not has_independent_set(g, t + 1)
        # brute-force the same set over all classes
        expected = {
            canonical_form(g)
            for g in bounded_classes(n, q, t)
            if is_plus_kt(g, q - 1) and arrows(g, avec)
        }
        assert set(got.lines()) == expected, (avec, q, n, t)


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_descent_canonical_parent_rule_matches_reference(backend, monkeypatch):
    # labeling only children whose removed edge has the largest key among
    # the re-addable non-edges keeps every class that labeling every child
    # keeps; K_7 has the largest automorphism group, (2, 2, 2) at q = 4 is
    # settled by free_partition
    monkeypatch.setattr(_kernels, "impl", available_backends()[backend])
    cases = [
        (maximal_family_exhaustive(avec, q, n, t), avec, q, t)
        for avec, q, n, t in DESCENT_CONFIGS + (((2, 2, 2), 4, 7, 3),)
    ]
    cases.append((graph_set_of([Graph.complete(7)]), (3,), 8, 2))
    for seeds, avec, q, t in cases:
        want = plus_clique_descent_reference(seeds, avec, q, t).lines()
        assert want
        for workers in (1, 2, 3):
            got = plus_clique_descent(seeds, avec, q, t, workers=workers)
            assert got.lines() == want, (avec, q, t, workers)


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_descent_matches_reference_on_twin_rich_seeds(backend, monkeypatch):
    # removing one edge per twin-swap orbit keeps every class: complete
    # families holding K_n less a perfect matching (n/2 open twin pairs) and
    # coned graphs (on 8 vertices some with two cones, a closed class)
    monkeypatch.setattr(_kernels, "impl", available_backends()[backend])
    for avec, q, n, t in (((3,), 4, 6, 2), ((4,), 5, 8, 2), ((3,), 5, 8, 4)):
        seeds = maximal_family_exhaustive(avec, q, n, t)
        assert canonical_form(complete_less_matching(n)) in seeds.lines()
        assert any(cone_vertex_count(g) for g in seeds)
        want = plus_clique_descent_reference(seeds, avec, q, t).lines()
        for workers in (1, 2):
            got = plus_clique_descent(seeds, avec, q, t, workers=workers)
            assert got.lines() == want, (avec, q, n, t, workers)


def test_descent_expands_each_class_once(monkeypatch):
    # the work list is deduplicated by the result itself: a child already
    # in the result is not pushed again, which changes no output but would
    # expand its class (and its whole subtree) once per parent
    expanded = Counter()

    def counting(entries, q, t, task):
        expanded[canonical_line(task[0])] += 1
        return _descent_worker(entries, q, t, task)

    monkeypatch.setattr(search, "_descent_worker", counting)
    cases = [
        (maximal_family_exhaustive(avec, q, n, t), avec, q, t)
        for avec, q, n, t in DESCENT_CONFIGS
    ]
    cases.append((graph_set_of([Graph.complete(7)]), (3,), 8, 2))
    for seeds, avec, q, t in cases:
        expanded.clear()
        got = plus_clique_descent(seeds, avec, q, t)
        assert sorted(expanded) == got.lines(), (avec, q, t)
        assert set(expanded.values()) == {1}, (avec, q, t)


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_descent_worker_children_do_not_depend_on_labeling(backend, monkeypatch, rng):
    # the work list holds a class as the labeling its parent's worker built,
    # so a class must give the same child lines from any of its labelings;
    # each child comes with a labeling of its own line's class
    monkeypatch.setattr(_kernels, "impl", available_backends()[backend])
    cases = []
    for avec, q, n, t in DESCENT_CONFIGS:
        members = plus_clique_descent(maximal_family_exhaustive(avec, q, n, t), avec, q, t)
        picked = rng.sample(list(members), min(8, len(members)))
        cases += [(g, avec, q, t) for g in picked]
    cases.append((Graph.complete(7), (3,), 8, 2))
    children = 0
    for g, avec, q, t in cases:
        entries = ArrowVector(avec).canonical().entries
        none_dead = (0,) * g.n
        want = [line for line, _ in _descent_worker(entries, q, t, (g.adj, none_dead))]
        for _ in range(4):
            task = (random_permuted(rng, g).adj, none_dead)
            got = _descent_worker(entries, q, t, task)
            assert [line for line, _ in got] == want, (avec, q, t, canonical_form(g))
            assert all(canonical_line(adj) == line for line, (adj, _) in got)
        children += len(want)
    assert children


MAXIMAL_H6_8_12 = HOSTS_H6_8_12.with_name("maximal_h6_8_12_t3.g6")


def _descent_against_reference(seeds, avec, q, t):
    # expand every class of the descent, last in first out as
    # plus_clique_descent does; at each the worker must return exactly the
    # reference's children, child adjacencies and dead masks
    entries = ArrowVector(avec).canonical().entries
    seen = set()
    tasks = []

    def enter(children):
        for line, task in children:
            if line not in seen:
                seen.add(line)
                tasks.append(task)

    enter((canonical_line(g.adj), (g.adj, (0,) * g.n)) for g in seeds if is_plus_kt(g, q - 1))
    while tasks:
        task = tasks.pop()
        want = descent_worker_reference(entries, q, t, task)
        assert _descent_worker(entries, q, t, task) == want, (avec, q, t, task)
        enter(want)
    return len(seen)


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_descent_worker_matches_eager_reference(backend, monkeypatch):
    # testing re-addability lazily and skipping the arrowing test that a
    # K_{q-2} decides change no child, no adjacency and no dead mask: on
    # every class of the H(6; 8; 12) descent (arrowing implied), of a sparse
    # q = 5 family, and of families where arrowing is not implied, a = q - 1
    # and a multi-entry vector with sum(a_i - 1) + 1 > q - 2
    monkeypatch.setattr(_kernels, "impl", available_backends()[backend])
    h6 = [from_graph6(line) for line in graph6_lines(MAXIMAL_H6_8_12)]
    assert len(h6) == 12
    assert _descent_against_reference(h6, (6,), 8, 3) == 3104
    for avec, q, n, t in (((3,), 5, 8, 4), ((3,), 4, 7, 3), ((2, 2, 2), 4, 7, 3)):
        seeds = maximal_family_exhaustive(avec, q, n, t)
        expanded = _descent_against_reference(seeds, avec, q, t)
        assert expanded == len(plus_clique_descent(seeds, avec, q, t)) > 1, avec


@pytest.mark.skipif("compiled" not in available_backends(), reason="compiled backend unavailable")
def test_descent_children_twins_return_the_same_children(rng):
    # the compiled descent_children returns the pure twin's lines, child
    # adjacencies and dead masks on every class of the benchmark's descent
    # input (arrowing implied by a K_{q-2}, so also with the vector passed
    # anyway) and of families whose children are tested for arrowing, by a
    # clique ((3,) at q = 4) and by free partitions ((2, 2, 2) at q = 4);
    # each class also with random dead masks on its edges
    cy = available_backends()["compiled"]
    h6 = [from_graph6(line) for line in graph6_lines(MAXIMAL_H6_8_12)]
    cases = [(h6, (6,), 8, 3, 3104)]
    cases += [(maximal_family_exhaustive(avec, 4, 7, 3), avec, 4, 3, None) for avec in ((3,), (2, 2, 2))]
    for seeds, avec, q, t, size in cases:
        entries = ArrowVector(avec).canonical().entries
        used = () if clique_arrows(entries, q - 2) else entries
        seen = {canonical_form(g) for g in seeds}
        tasks = [(g.adj, (0,) * g.n) for g in seeds]
        while tasks:
            adj, dead = tasks.pop()
            random_dead = [0] * len(adj)
            for u, row in enumerate(adj):
                for v in bits_of(row >> u + 1 << u + 1):
                    if rng.random() < 0.2:
                        random_dead[u] |= 1 << v
                        random_dead[v] |= 1 << u
            for vec in {used, entries}:
                for d in (dead, tuple(random_dead)):
                    want = _kernels_py.descent_children(adj, d, vec, q, t)
                    assert cy.descent_children(adj, d, vec, q, t) == want, (avec, adj, d, vec)
            for line, task in _kernels_py.descent_children(adj, dead, used, q, t):
                if line not in seen:
                    seen.add(line)
                    tasks.append(task)
        assert len(seen) == (size or len(plus_clique_descent(seeds, avec, q, t))), avec


def _child_tests_match_the_full_test(adj, q):
    """Both twins' child_is_plus_k(adj, u, v, q) on every edge uv of the
    plus-K_{q-1} graph ``adj``, alone and with one verdict array kept
    across the edges as descent_children keeps it, must equal the pure
    is_plus_k of adj less uv at q - 1; both twins must write the same
    verdicts, each one found from its definition.  Returns the results."""
    n = len(adj)
    edges = [(u, v) for u, row in enumerate(adj) for v in bits_of(row >> u + 1 << u + 1)]
    want = []
    for u, v in edges:
        child = list(adj)
        child[u] ^= 1 << v
        child[v] ^= 1 << u
        want.append(_kernels_py.is_plus_k(child, q - 1))
    kept = {}
    for name, kernels in available_backends().items():
        assert [kernels.child_is_plus_k(adj, u, v, q) for u, v in edges] == want, (name, adj, q)
        verdict = kept[name] = bytearray(n * n)
        got = [kernels.child_is_plus_k(adj, u, v, q, verdict) for u, v in edges]
        assert got == want, (name, adj, q)
    for i, found in enumerate(kept["python"]):
        x, y = divmod(i, n)
        if found:
            assert x < y and not adj[x] >> y & 1, (adj, q, x, y)
            readd = not _kernels_py.has_clique_within(adj, adj[x] & adj[y], q - 2)
            assert found == 1 + readd, (adj, q, x, y)
    assert all(verdict == kept["python"] for verdict in kept.values()), (adj, q)
    return want


def test_child_plus_k_test_matches_the_full_test_on_every_descent_class():
    # on every edge of every class of the benchmark's descent input and of
    # DESCENT_CONFIGS' descents, with children that pass and that fail
    h6 = [from_graph6(line) for line in graph6_lines(MAXIMAL_H6_8_12)]
    cases = [(h6, (6,), 8, 3)]
    for avec, q, n, t in DESCENT_CONFIGS:
        cases.append((maximal_family_exhaustive(avec, q, n, t), avec, q, t))
    for seeds, avec, q, t in cases:
        verdicts = Counter()
        for g in plus_clique_descent(seeds, avec, q, t):
            verdicts.update(_child_tests_match_the_full_test(g.adj, q))
        assert verdicts[True] and verdicts[False], (avec, q, t)


@st.composite
def _edge_maximal_kt_free(draw, max_n):
    # the pairs taken in a drawn order, each added unless it completes a K_t
    n = draw(st.integers(0, max_n))
    t = draw(st.integers(2, 6))
    pairs = draw(st.permutations([(u, v) for u in range(n) for v in range(u + 1, n)]))
    adj = [0] * n
    for u, v in pairs:
        if not _kernels_py.has_clique_within(adj, adj[u] & adj[v], t - 2):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj), t


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_edge_maximal_kt_free(11))
def test_child_plus_k_test_matches_the_full_test_on_edge_maximal_graphs(drawn):
    # an edge-maximal K_t-free graph is plus-K_s for every s <= t
    adj, t = drawn
    for q in range(2, t + 2):
        _child_tests_match_the_full_test(adj, q)


def _counting_child_tests(monkeypatch):
    """Run the descent on the pure twin, whose ``child_is_plus_k`` is
    replaced by one that records the child P - uv of each call in the
    returned list: a kernel's own calls are made through its module's
    globals."""
    tested = []
    real = _kernels_py.child_is_plus_k

    def child_is_plus_k(adj, u, v, q, verdict=None):
        child = list(adj)
        child[u] &= ~(1 << v)
        child[v] &= ~(1 << u)
        tested.append(tuple(child))
        return real(adj, u, v, q, verdict)

    monkeypatch.setattr(_kernels_py, "child_is_plus_k", child_is_plus_k)
    monkeypatch.setattr(_kernels, "impl", _kernels_py)
    return tested


def _forgetting_dead(entries, q, t, task):
    adj, _ = task
    return _descent_worker(entries, q, t, (adj, (0,) * len(adj)))


class _ReplayedChildren:
    """A compiled kernel module whose ``descent_children`` is replayed on
    the pure twin, which must return the same children: the compiled child
    loop makes its ``child_is_plus_k`` calls in C, so the replay's calls
    (recorded by ``_counting_child_tests``) stand for them."""

    def __init__(self, real):
        self.real = real

    def __getattr__(self, name):
        return getattr(self.real, name)

    def descent_children(self, adj, dead, entries, q, t):
        got = self.real.descent_children(adj, dead, entries, q, t)
        assert got == _kernels_py.descent_children(adj, dead, entries, q, t), (adj, dead)
        return got


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_dead_edges_cut_plus_clique_tests_and_keep_every_line(backend, monkeypatch):
    # a dead edge heads a subtree without members: a descent whose classes
    # forget their dead masks tests strictly more children for plus-K_{q-1}
    # and finds the same lines (the compiled twin's tests counted on the
    # pure twin's replay of each of its classes)
    tested = _counting_child_tests(monkeypatch)
    real = available_backends()[backend]
    if real is not _kernels_py:
        monkeypatch.setattr(_kernels, "impl", _ReplayedChildren(real))
    for avec, q, n, t in DESCENT_CONFIGS:
        seeds = maximal_family_exhaustive(avec, q, n, t)
        tested.clear()
        want = plus_clique_descent(seeds, avec, q, t).lines()
        inherited = len(tested)
        with monkeypatch.context() as m:
            m.setattr(search, "_descent_worker", _forgetting_dead)
            tested.clear()
            assert plus_clique_descent(seeds, avec, q, t).lines() == want, (avec, q, t)
        assert inherited < len(tested), (avec, q, t)


def test_dead_edges_fail_a_family_test(monkeypatch):
    # every dead edge of a class's task is one whose removal leaves a graph
    # outside the plus-clique family; a key-rule rejection is not dead
    tasks = []

    def recording(entries, q, t, task):
        tasks.append(task)
        return _descent_worker(entries, q, t, task)

    monkeypatch.setattr(search, "_descent_worker", recording)
    marked = 0
    for avec, q, n, t in DESCENT_CONFIGS:
        entries = ArrowVector(avec).canonical().entries
        tasks.clear()
        plus_clique_descent(maximal_family_exhaustive(avec, q, n, t), avec, q, t)
        for adj, dead in tasks:
            g = Graph(len(adj), adj)
            for u, row in enumerate(dead):
                for v in bits_of(row & adj[u]):
                    child = remove_edge(g, u, v)
                    assert search.Family(entries, q, n, t).defect(child.adj) or not is_plus_kt(
                        child, q - 1
                    ), (avec, q, t, u, v)
                    marked += 1
    assert marked


class _RecordingPool(search._Pool):
    """A pool that records the batch of tasks in each message it sends, and
    in ``events`` each send and each reply read as ("send" or "recv", the
    index of the worker's pipe)."""

    sent = []
    events = []

    def __init__(self, workers):
        super().__init__(workers)
        for i, conn in enumerate(self.conns):
            conn.send = self._recording(i, conn.send)
            conn.recv = self._reading(i, conn.recv)

    @classmethod
    def _recording(cls, i, send):
        def record(message):
            cls.sent.append(message[1])
            cls.events.append(("send", i))
            return send(message)

        return record

    @classmethod
    def _reading(cls, i, recv):
        def read():
            reply = recv()
            cls.events.append(("recv", i))
            return reply

        return read


# The tasks run by the calling process.  The recording workers below append
# to it wherever they run, but a forked worker appends to its own copy.
_ran_in_caller = []


def _recording_descent_worker(entries, q, t, task):
    _ran_in_caller.append(task)
    return _descent_worker(entries, q, t, task)


def _recording_extension_worker(*args):
    _ran_in_caller.append(args[-1])
    return _extension_worker(*args)


def test_descent_ships_classes_in_batches(monkeypatch):
    # the work list of this descent peaks at about two dozen classes, so an
    # idle worker is sent several per message and the caller runs the rest;
    # each class is still expanded once, and the result is the one-worker
    # result
    seeds = maximal_family_exhaustive((3,), 4, 8, 3)
    want = plus_clique_descent(seeds, (3,), 4, 3).lines()
    assert len(want) == 707
    monkeypatch.setattr(search, "_Pool", _RecordingPool)
    monkeypatch.setattr(search, "_descent_worker", _recording_descent_worker)
    for workers in (2, 3):
        _RecordingPool.sent.clear()
        _ran_in_caller.clear()
        got = plus_clique_descent(seeds, (3,), 4, 3, workers=workers)
        assert got.lines() == want, workers
        sent = _RecordingPool.sent
        shipped = [canonical_line(adj) for batch in sent for adj, _ in batch]
        ran = [canonical_line(adj) for adj, _ in _ran_in_caller]
        # want holds each class once, so no class ran twice
        assert sorted(shipped + ran) == want, workers
        assert len(sent) < len(shipped), workers


def test_a_busy_worker_is_sent_its_next_batch_before_its_reply_is_read(monkeypatch):
    # each forked worker is kept up to two batches deep while more than
    # one task is pending, and never deeper; every batch's reply is read
    seeds = maximal_family_exhaustive((3,), 4, 8, 3)
    want = plus_clique_descent(seeds, (3,), 4, 3).lines()
    monkeypatch.setattr(search, "_Pool", _RecordingPool)
    for workers in (2, 3):
        _RecordingPool.sent.clear()
        _RecordingPool.events.clear()
        assert plus_clique_descent(seeds, (3,), 4, 3, workers=workers).lines() == want
        depth = Counter()
        deepest = 0
        for kind, i in _RecordingPool.events:
            depth[i] += 1 if kind == "send" else -1
            assert 0 <= depth[i] <= 2, workers
            deepest = max(deepest, depth[i])
        assert deepest == 2, workers
        assert not +depth, workers


def test_the_largest_descent_message_fits_half_the_send_buffer():
    # a worker may hold its first batch unread when its second is sent, so
    # the largest message must fit the send buffer of the pool's socket
    # pair twice over, or the caller's send could wait on a worker blocked
    # on writing its reply
    full = (1 << 64) - 1
    batch = [(tuple(full ^ 1 << i ^ k for i in range(64)), (full ^ k,) * 64) for k in range(search._BATCH)]
    entries = ArrowVector((3, 3, 3, 3)).canonical().entries
    message = (partial(search._descent_worker, entries, 9, 64), batch)
    ours, theirs = socket.socketpair()
    with ours, theirs:
        size = ours.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    assert 2 * len(pickle.dumps(message)) < size


def test_extension_ships_hosts_in_batches(monkeypatch):
    # a task is one host line, and an idle worker is sent several per
    # message while many remain, the caller running the rest; each host is
    # still extended once, and the output is the one-worker output
    sp = spec((3,), 4, 8, 2, 3)
    seeds = maximal_family_exhaustive((2,), 4, 6, 3)
    descended = plus_clique_descent(seeds, (2,), 4, 3)
    hosts = descended.lines()
    assert len(hosts) == 30
    want = generate_family(sp, seeds).output.lines()
    monkeypatch.setattr(search, "_Pool", _RecordingPool)
    monkeypatch.setattr(search, "_extension_worker", _recording_extension_worker)
    for workers in (2, 3):
        _RecordingPool.sent.clear()
        _ran_in_caller.clear()
        got = generate_family(sp, seeds, workers=workers, descended=descended)
        assert got.output.lines() == want, workers
        sent = _RecordingPool.sent
        shipped = [line for batch in sent for line in batch]
        # hosts holds each host once, so no host ran twice
        assert sorted(shipped + _ran_in_caller) == hosts, workers
        assert len(sent) < len(shipped), workers


def _outranked(g, u, v, q):
    # the key rule before the family tests, from the definitions: a
    # non-edge of g away from u and v whose common neighbourhood holds no
    # K_{q-2} and whose (common neighbours, degree sum) is above uv's in
    # g - uv
    def key(x, y, drop):
        common = g.adj[x] & g.adj[y]
        return common.bit_count(), degree(g, x) + degree(g, y) - drop

    return any(
        key(x, y, 0) > key(u, v, 2)
        and not has_clique(induced(g, g.adj[x] & g.adj[y]), q - 2)
        for x, y in non_edges(g)
        if not {x, y} & {u, v}
    )


def test_descent_tries_one_edge_per_twin_swap_orbit(monkeypatch):
    # with no dead edge, the worker tests the child of exactly one edge of
    # each orbit of the parent's twin swaps that the key rule lets through,
    # and no edge of the others (the rule commutes with automorphisms); the
    # parents, every class of each descent, include K_7 (one closed class),
    # the q = 5 bases on 8 vertices with K_8 less a perfect matching (four
    # open pairs) and coned graphs
    cases = [
        (maximal_family_exhaustive(avec, q, n, t), avec, q, t)
        for avec, q, n, t in DESCENT_CONFIGS + (((3,), 5, 8, 4),)
    ]
    cases.append((graph_set_of([Graph.complete(7)]), (3,), 8, 2))
    tested = _counting_child_tests(monkeypatch)
    merged = tried = 0
    for seeds, avec, q, t in cases:
        entries = ArrowVector(avec).canonical().entries
        for g in plus_clique_descent(seeds, avec, q, t):
            tested.clear()
            _descent_worker(entries, q, t, (g.adj, (0,) * g.n))
            edges = set()
            for child in tested:
                (edge,) = [(u, v) for u, v in g.edges() if not child[u] >> v & 1]
                edges.add(edge)
            assert len(edges) == len(tested)
            orbits = twin_swap_edge_orbits(g)
            for orbit in orbits:
                u, v = next(iter(orbit))
                want = 0 if _outranked(g, u, v, q) else 1
                assert len(edges & orbit) == want, (avec, q, t, to_graph6(g), orbit)
            assert edges <= set(g.edges())
            merged += edge_count(g) - len(orbits)
            tried += len(edges)
    assert merged > 0 and tried > 0


def test_descent_drops_seeds_outside_the_plus_clique_family():
    # a triangle plus an isolated vertex arrows (3) without K_5 or an
    # independent 4-set, but joining the isolated vertex to the triangle
    # completes no K_4: the seed heads an empty subtree
    outside = from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert not is_plus_kt(outside, 4)
    assert plus_clique_descent(graph_set_of([outside]), (3,), 5, 3).lines() == []
    got = plus_clique_descent(graph_set_of([outside, Graph.complete(4)]), (3,), 5, 3)
    assert got.lines() == ["C^", "C~"]  # K_4 less an edge, and K_4


def test_descent_at_boundary_order_keeps_near_complete_graph():
    # on q - 1 vertices the complete graph minus one edge is a plus-clique
    # member; the chains rely on it as an extension host
    seeds = graph_set_of([Graph.complete(7)])
    got = plus_clique_descent(seeds, (3,), 8, 2)
    assert len(got) == 2
    lines = got.lines()
    assert canonical_form(Graph.complete(7)) in lines
    assert canonical_form(remove_edge(Graph.complete(7), 0, 1)) in lines


def test_descent_from_k7_yields_only_coned_classes():
    seeds = graph_set_of([Graph.complete(7)])
    got = plus_clique_descent(seeds, (3,), 8, 2)
    assert [g for g in got if cone_vertex_count(g) == 0] == []


def test_generate_family_matches_brute_force_small():
    # q = 4 instance from the degenerate complete base
    base = complete_base((2,), 4, 3, 3)
    out = generate_family(spec((3,), 4, 5, 2, 3), base)
    brute = maximal_family_reference((3,), 4, 5, 3)
    assert out.output.lines() == brute.lines()
    assert len(out.output) == 2


def test_generate_family_chain_matches_brute_force_n7():
    base = complete_base((2,), 4, 3, 3)
    mid = generate_family(spec((3,), 4, 5, 2, 3), base)
    out = generate_family(spec((3,), 4, 7, 2, 3), mid.output)
    brute = maximal_family_reference((3,), 4, 7, 3)
    assert out.output.lines() == brute.lines()


def test_arrowing_is_tested_only_where_a_clique_does_not_decide_it(monkeypatch):
    # a descent child holds a K_{q-2} and an extension output a K_{q-1}:
    # the descent and the extension test arrowing exactly when that clique
    # does not arrow the vector, sum(a_i - 1) + 1 > q - 2 or > q - 1, and
    # find the same graphs (counted on the pure twin, whose kernels call
    # arrows through its module's globals; the descent also tests each
    # seed for membership, which is not counted)
    calls = []

    def counting(adj, entries):
        calls.append(tuple(adj))
        return real(adj, entries)

    real = _kernels_py.arrows
    for avec, q, n, tested in (((3,), 5, 7, False), ((3,), 4, 7, True)):
        entries = ArrowVector(avec).canonical().entries
        seeds = maximal_family_exhaustive(avec, q, n, 3)
        members = list(plus_clique_descent(seeds, avec, q, 3))
        want = [descent_worker_reference(entries, q, 3, (g.adj, (0,) * n)) for g in members]
        with monkeypatch.context() as m:
            m.setattr(_kernels, "impl", _kernels_py)
            m.setattr(_kernels_py, "arrows", counting)
            calls.clear()
            got = plus_clique_descent(seeds, avec, q, 3).lines()
            children = set(calls) - {g.adj for g in seeds}
        assert got == [canonical_line(g.adj) for g in members], (avec, q)
        assert bool(children) == tested, (avec, q)
        assert [_descent_worker(entries, q, 3, (g.adj, (0,) * n)) for g in members] == want
    # (2, 3) at q = 4 has sum(a_i - 1) + 1 = q; (3,) at q = 4 has q - 1
    for avec, tested in (((2, 3), True), ((3,), False)):
        fam = spec(avec, 4, 7, 2, 3)
        seeds = maximal_family_exhaustive(fam.decremented(), 4, 5, 3)
        descended = plus_clique_descent(seeds, fam.decremented(), 4, 3)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "impl", _kernels_py)
            m.setattr(_kernels_py, "arrows", counting)
            calls.clear()
            out = generate_family(fam, seeds, descended=descended).output
        assert bool(calls) == tested, avec
        assert out.lines() == maximal_family_reference(avec, 4, 7, 3).lines(), avec
        assert len(out) > 0


def test_clique_arrows_is_decided_once_per_descent_and_extension(monkeypatch):
    # the vector handed to every task is decided once per descent, and
    # once per FamilySpec for its extensions, whatever the number of
    # classes or hosts
    decided = []

    def counting(entries, k):
        decided.append(k)
        return real(entries, k)

    real = search.clique_arrows
    monkeypatch.setattr(search, "clique_arrows", counting)
    for avec in ((3,), (2, 3)):
        decided.clear()
        fam = spec(avec, 4, 8, 2, 3)
        assert decided == [3], avec
        seeds = maximal_family_exhaustive(fam.decremented(), 4, 6, 3)
        decided.clear()
        descended = plus_clique_descent(seeds, fam.decremented(), 4, 3)
        assert decided == [2] and len(descended) > 1, avec
        decided.clear()
        for _ in range(2):
            assert len(generate_family(fam, seeds, descended=descended).output), avec
        assert decided == [], avec


def test_cone_split_equals_plain_on_q4(monkeypatch):
    # (spec, seeds, cone seeds, hosts, cone-free hosts): every host of n = 5
    # is coned, while n = 8 makes the cone split extend its 21 cone-free
    # hosts and skip the other 9 (counted on the pure twin, whose
    # extension_lines calls valid_multisets through its module's globals)
    extended = []
    real_valid_multisets = _kernels_py.valid_multisets

    def counted(adj, *args):
        extended.append(adj)
        return real_valid_multisets(adj, *args)

    # the count is seen in-process only, so at one worker
    monkeypatch.setattr(_kernels, "impl", _kernels_py)
    monkeypatch.setattr(_kernels_py, "valid_multisets", counted)
    cases = [
        (
            spec((3,), 4, 5, 2, 3),
            complete_base((2,), 4, 3, 3),
            maximal_family_exhaustive((2,), 3, 4, 3),
            2,
            0,
        ),
        (
            spec((3,), 4, 8, 2, 3),
            maximal_family_exhaustive((2,), 4, 6, 3),
            maximal_family_exhaustive((2,), 3, 7, 3),
            30,
            21,
        ),
    ]
    for sp, seeds, cone_seeds, hosts, cone_free in cases:
        extended.clear()
        plain = generate_family(sp, seeds)
        assert len(plain.plus_clique) == hosts == len(extended)
        assert sum(cone_vertex_count(h) == 0 for h in plain.plus_clique) == cone_free
        want = maximal_family_reference((3,), 4, sp.n, 3).lines()
        assert plain.output.lines() == want
        for workers in (1, 2):
            extended.clear()
            split = generate_family_cone_split(sp, seeds, cone_seeds, workers=workers)
            assert split.output.lines() == want, (sp.n, workers)
            if workers == 1:
                assert len(extended) == cone_free, sp.n


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_cone_split_coned_outputs_match_the_join_recovery(backend, monkeypatch):
    # H(3; 4; 8) from two seeds with one cone vertex and one cone seed, so
    # both coned branches fire
    monkeypatch.setattr(_kernels, "impl", available_backends()[backend])
    sp = spec((3,), 4, 8, 2, 3)
    seeds = maximal_family_exhaustive((2,), 4, 6, 3)
    cone_seeds = maximal_family_exhaustive((2,), 3, 7, 3)
    assert sum(cone_vertex_count(w) == 1 and arrows(w, (3,)) for w in seeds) == 2
    assert sum(has_independent_set(h, sp.r) for h in cone_seeds) == 1
    real_extend = search._extend

    def coned_only(*args, **kwargs):
        # keep the descent, drop the extended outputs
        return GraphSet(), real_extend(*args, **kwargs)[1]

    monkeypatch.setattr(search, "_extend", coned_only)
    coned = generate_family_cone_split(sp, seeds, cone_seeds).output
    want = coned_outputs_reference(sp, seeds, cone_seeds)
    assert len(want) == 3
    assert coned.lines() == want.lines()


def test_outputs_satisfy_family_contracts():
    base = complete_base((3,), 8, 6, 3)
    out = generate_family(spec((4,), 8, 8, 2, 3), base).output
    for g in out:
        assert arrows(g, (4,))
        assert clique_number(g) < 8
        assert is_plus_kt(g, 8)
        assert 2 <= independence_number(g) <= 3


def test_deleting_independent_sets_lands_in_decremented_plus_clique_family():
    base = complete_base((3,), 8, 6, 3)
    r4 = generate_family(spec((4,), 8, 8, 2, 3), base)
    r5 = generate_family(spec((5,), 8, 10, 2, 3), r4.output)
    for g in r5.output:
        full = g.full_mask()
        for mask in range(1, full + 1):
            members = list(bits_of(mask))
            if any(g.adj[u] & mask for u in members):
                continue  # not independent
            rest = delete_vertices(g, mask)
            assert is_plus_kt(rest, 7)
            assert arrows(rest, (5 - len(members),))


def test_cone_law_on_outputs():
    # a cone-free output whose independent-pair deletion leaves a coned
    # graph splits as an (r+1)-fold independent join
    base = complete_base((2,), 4, 3, 3)
    out = generate_family(spec((3,), 4, 5, 2, 3), base).output
    for g in out:
        if cone_vertex_count(g) != 0:
            continue
        for mask in range(1, g.full_mask() + 1):
            members = list(bits_of(mask))
            if len(members) != 2 or any(g.adj[u] & mask for u in members):
                continue
            rest = delete_vertices(g, mask)
            if cone_vertex_count(rest) == 0:
                continue
            # find the apex set: deleted pair plus the cone of the remainder
            kept = [v for v in range(g.n) if not (mask >> v) & 1]
            cones = [
                kept[i]
                for i in range(rest.n)
                if rest.adj[i] | (1 << i) == rest.full_mask()
            ]
            apex = set(members) | {cones[0]}
            others = set(range(g.n)) - apex
            for u in apex:
                assert not any((g.adj[u] >> v) & 1 for v in apex)
                assert all((g.adj[u] >> v) & 1 for v in others)


def test_remark_base_families():
    # for a1 <= n <= q - 1 the maximal family is the complete graph alone
    for a1, q, n in ((3, 8, 6), (4, 9, 7), (2, 4, 3)):
        fam = maximal_family_exhaustive((a1,), q, n, 3)
        assert fam.lines() == [canonical_form(Graph.complete(n))]


def test_remark_full_family_at_r2():
    # with r = 2 and n >= q nothing above independence 1 is lost, and
    # complete graphs are excluded by the clique bound anyway
    base = maximal_family_exhaustive((2,), 4, 4, 4)
    out = generate_family(spec((3,), 4, 6, 2, 4), base)
    brute = maximal_family_reference((3,), 4, 6, 4)
    assert out.output.lines() == brute.lines()


def test_worker_count_does_not_change_results():
    base = complete_base((3,), 8, 6, 3)
    a = generate_family(spec((4,), 8, 8, 2, 3), base, workers=1)
    b = generate_family(spec((4,), 8, 8, 2, 3), base, workers=3)
    assert a.output.lines() == b.output.lines()
    assert a.plus_clique.lines() == b.plus_clique.lines()


def _cone_split_inputs():
    """H(4; 5; 9) at r = 2, t = 3: its spec, the seeds H(3; 5; 7), the cone
    seeds H(3; 4; 8) and the seeds' descended plus-clique set."""
    sp = spec((4,), 5, 9, 2, 3)
    seeds = maximal_family_exhaustive((3,), 5, 7, 3)
    cone_seeds = maximal_family_exhaustive((3,), 4, 8, 3)
    return sp, seeds, cone_seeds, plus_clique_descent(seeds, (3,), 5, 3)


def test_worker_count_below_one_is_an_input_error():
    # worker_pool is the one check of the count, wherever it comes from,
    # and every entry point reaches it with work to do or none
    base = complete_base((3,), 8, 6, 3)
    with pytest.raises(GraphError, match="at least 1 worker"):
        generate_family(spec((4,), 8, 8, 2, 3), base, workers=-1)
    with pytest.raises(GraphError, match="at least 1 worker"):
        plus_clique_descent(base, (3,), 8, 3, workers=-3)
    with pytest.raises(GraphError, match="at least 1 worker"):
        with worker_pool(0):
            pass
    sp, seeds, cone_seeds, descended = _cone_split_inputs()
    none = GraphSet()
    for workers in (0, -2):
        calls = {
            "descent": lambda: plus_clique_descent(seeds, (3,), 5, 3, workers=workers),
            "descent, no seeds": lambda: plus_clique_descent([], (3,), 4, 3, workers=workers),
            "extension": lambda: generate_family(sp, seeds, workers=workers),
            "extension, no hosts": lambda: generate_family(
                sp, none, workers=workers, descended=none
            ),
            "cone split": lambda: generate_family_cone_split(
                sp, seeds, cone_seeds, workers=workers, descended=descended
            ),
            "cone split, no hosts": lambda: generate_family_cone_split(
                sp, none, none, workers=workers, descended=none
            ),
        }
        for what, call in calls.items():
            with pytest.raises(GraphError, match=f"^needs at least 1 worker, got {workers}$"):
                call()
                pytest.fail(what)
    assert not multiprocessing.active_children()


class _NoPool:
    def __init__(self, forks):
        raise AssertionError("pool object made for one worker")


def test_one_worker_runs_build_no_pool_object(monkeypatch):
    sp, seeds, cone_seeds, descended = _cone_split_inputs()
    want = (
        plus_clique_descent(seeds, (3,), 5, 3).lines(),
        generate_family(sp, seeds).output.lines(),
        generate_family_cone_split(sp, seeds, cone_seeds).output.lines(),
    )
    monkeypatch.setattr(search, "_Pool", _NoPool)
    got = (
        plus_clique_descent(seeds, (3,), 5, 3, workers=1).lines(),
        generate_family(sp, seeds, workers=1).output.lines(),
        generate_family_cone_split(sp, seeds, cone_seeds, workers=1).output.lines(),
    )
    assert got == want and all(want)
    with pytest.raises(AssertionError, match="pool object made"):
        plus_clique_descent(seeds, (3,), 5, 3, workers=2)


def _fail_on_7(task):
    return _fail_in_caller(task) if task == 7 else abs(task)


def test_a_task_run_by_the_caller_at_one_worker_raises_unchanged(monkeypatch):
    monkeypatch.setattr(search, "_Pool", _NoPool)
    out = []
    with pytest.raises(ValueError, match="task 7 failed") as info:
        _dispatch(_fail_on_7, [5, 7, -3], out.append, 1)
    assert info.value.__cause__ is None and info.value.__context__ is None
    # the last task runs first, and none runs after the one that raised
    assert out == [3]


def _hosts_in_order(lines):
    out = GraphSet()
    for line in lines:
        out.insert_canonical(line)
    return out


class _HostsHandedOutInOrder(GraphSet):
    def __init__(self, lines):
        super().__init__()
        self.order = list(lines)
        for line in lines:
            self.insert_canonical(line)

    def unsorted_lines(self):
        return list(self.order)


@pytest.mark.parametrize("workers", [1, 2])
def test_extension_output_does_not_depend_on_host_order(workers, monkeypatch):
    # hosts are dispatched in set order, which follows the insertion
    # history and the hash seed; the outputs must not
    sp, seeds, cone_seeds, descended = _cone_split_inputs()
    lines = descended.lines()
    assert len(lines) > 8
    shuffled = list(lines)
    random.Random(5).shuffle(shuffled)
    orders = [lines, lines[::-1], shuffled]
    want = generate_family(sp, seeds, descended=descended).output.lines()
    assert want
    dispatched = []
    real_dispatch = search._dispatch

    def recording(fn, tasks, give, w):
        dispatched.append(tuple(tasks))
        return real_dispatch(fn, tasks, give, w)

    monkeypatch.setattr(search, "_dispatch", recording)
    for order in orders:
        hosts = _hosts_in_order(order)
        assert generate_family(sp, seeds, workers, hosts).output.lines() == want
        split = generate_family_cone_split(sp, seeds, cone_seeds, workers, hosts)
        assert split.output.lines() == want
    # the same with the hosts handed out in each of those orders outright
    for order in orders:
        hosts = _HostsHandedOutInOrder(order)
        assert generate_family(sp, seeds, workers, hosts).output.lines() == want
        split = generate_family_cone_split(sp, seeds, cone_seeds, workers, hosts)
        assert split.output.lines() == want
    assert {tuple(order) for order in orders} <= set(dispatched)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("algorithm", [1, 2])
def test_folkman_extend_output_is_byte_identical_across_hash_seeds(
    tmp_path, workers, algorithm
):
    sp, seeds, cone_seeds, _ = _cone_split_inputs()
    seeds.save(tmp_path / "seeds.g6")
    cone_seeds.save(tmp_path / "cone.g6")
    src = str(Path(search.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out{hash_seed}.g6"
        cmd = [
            sys.executable, "-m", "folkman.cli", "extend", "--spec", "4; 5; 9; 2; 3",
            "--input", str(tmp_path / "seeds.g6"), "--output", str(out),
            "--algorithm", str(algorithm), "--workers", str(workers),
        ]
        if algorithm == 2:
            cmd += ["--input2", str(tmp_path / "cone.g6")]
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
        outputs.append(out.read_bytes())
    want = generate_family(sp, seeds).output.lines()
    assert outputs[0] == outputs[1] == "".join(f"{line}\n" for line in want).encode()


def _abs_all(tasks, workers):
    tasks = list(tasks)
    out = []
    _dispatch(abs, tasks, out.append, workers)
    return sorted(out)


def test_worker_pool_ends_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with worker_pool(2):
            assert _abs_all([-2, 1, -3], 2) == [1, 2, 3]
            pool_workers = multiprocessing.active_children()
            assert pool_workers
            # one pool serves every call made inside the block
            assert _abs_all([-4], 2) == [4]
            assert {p.pid for p in multiprocessing.active_children()} == {
                p.pid for p in pool_workers
            }
            raise RuntimeError
    assert not any(p.is_alive() for p in pool_workers)
    with worker_pool(1) as pool:
        assert not pool.procs
        assert _abs_all([-5, 6], 1) == [5, 6]
        assert not multiprocessing.active_children()


def _edge_count(adj):
    return sum(row.bit_count() for row in adj) // 2


def _descent_worker_failing_low(entries, q, t, task):
    # K_7 passes; its child, one edge down, fails
    if _edge_count(task[0]) < 21:
        raise ValueError("worker failed")
    return _descent_worker(entries, q, t, task)


def _descent_worker_failing_deep(caller, entries, q, t, task):
    # on 8 vertices, past the depth where the work list holds many classes,
    # and only in a forked worker, so the failure comes inside a batch
    if os.getpid() != caller and _edge_count(task[0]) < 16:
        raise ValueError("worker failed deep")
    return _descent_worker(entries, q, t, task)


def test_streamed_descent_raises_worker_errors_and_ends_its_pool(monkeypatch):
    seeds = graph_set_of([Graph.complete(7)])
    want = plus_clique_descent(seeds, (3,), 8, 2).lines()
    monkeypatch.setattr(search, "_descent_worker", _descent_worker_failing_low)
    with pytest.raises(ValueError, match="worker failed"):
        plus_clique_descent(seeds, (3,), 8, 2, workers=2)
    assert not multiprocessing.active_children()
    # the same inside an open pool: the failed call ends the pool at once,
    # and the next call in the block forks a fresh one
    with worker_pool(2):
        with pytest.raises(ValueError, match="worker failed"):
            plus_clique_descent(seeds, (3,), 8, 2, workers=2)
        assert not multiprocessing.active_children()
        monkeypatch.undo()
        assert plus_clique_descent(seeds, (3,), 8, 2, workers=2).lines() == want
    assert not multiprocessing.active_children()
    # a task that fails inside a batch of several raises the same way
    monkeypatch.setattr(search, "_Pool", _RecordingPool)
    monkeypatch.setattr(
        search, "_descent_worker", partial(_descent_worker_failing_deep, os.getpid())
    )
    _RecordingPool.sent.clear()
    seeds = maximal_family_exhaustive((3,), 4, 8, 3)
    with pytest.raises(ValueError, match="worker failed deep"):
        plus_clique_descent(seeds, (3,), 4, 3, workers=2)
    assert not multiprocessing.active_children()
    assert any(
        len(batch) > 1 and any(_edge_count(adj) < 16 for adj, _ in batch)
        for batch in _RecordingPool.sent
    )


def _exit_unless_in(caller, code):
    if os.getpid() != caller:
        os._exit(code)
    return code


def test_worker_exit_raises_instead_of_hanging():
    # of two tasks one is shipped, and the forked worker that runs it exits
    out = []
    with pytest.raises(RuntimeError, match="exited"):
        _dispatch(partial(_exit_unless_in, os.getpid()), [3, 3], out.append, 2)
    assert out == [3]
    assert not multiprocessing.active_children()


def test_worker_pool_forks_one_process_fewer_than_its_workers():
    # the calling process is the remaining worker
    for workers in (2, 3):
        with worker_pool(workers) as pool:
            assert len(pool.procs) == workers - 1
            assert len(multiprocessing.active_children()) == workers - 1
        assert not multiprocessing.active_children()


def test_dispatch_runs_a_lone_pending_task_in_the_caller(monkeypatch):
    # each result pushes at most one task, so the list never holds two and
    # nothing is shipped
    monkeypatch.setattr(search, "_Pool", _RecordingPool)
    _RecordingPool.sent.clear()
    tasks = [5]
    out = []

    def give(n):
        out.append(n)
        if n:
            tasks.append(n - 1)

    _dispatch(abs, tasks, give, 2)
    assert out == [5, 4, 3, 2, 1, 0]
    assert _RecordingPool.sent == []


def test_one_worker_dispatch_runs_every_task_in_the_caller(monkeypatch):
    # a one-worker pool forks nothing, so the one loop runs each task in
    # the caller as it is popped, last in first out, and never makes a
    # poller to wait on a pipe
    def no_poll(*args):
        raise AssertionError("poller made with no process forked")

    monkeypatch.setattr(select, "poll", no_poll)
    caller = os.getpid()
    tasks = [1, 2, 3]
    out = []

    def give(result):
        pid, task = result
        assert pid == caller
        out.append(task)
        if task < 10:
            tasks.append(10 * task)

    _dispatch(lambda task: (os.getpid(), task), tasks, give, 1)
    assert out == [3, 30, 2, 20, 1, 10]
    assert not multiprocessing.active_children()


def test_one_worker_run_leaves_the_pipe_module_unimported():
    # multiprocessing.connection is loaded only to fork, and a pool that
    # forks nothing makes no poller
    script = (
        "import sys\n"
        "from folkman.search import _dispatch, worker_pool\n"
        "out = []\n"
        "with worker_pool(1) as pool:\n"
        "    _dispatch(abs, [-1, 2], out.append, 1)\n"
        "assert out == [2, 1], out\n"
        "assert pool.poller is None and pool.by_fd is None\n"
        # the descent and both extensions, at one worker
        "from folkman.generate import maximal_family_exhaustive as exhaustive\n"
        "from folkman.search import FamilySpec, generate_family\n"
        "from folkman.search import generate_family_cone_split, plus_clique_descent\n"
        "seeds, cone = exhaustive((3,), 5, 7, 3), exhaustive((3,), 4, 8, 3)\n"
        "sp = FamilySpec((4,), 5, 9, 2, 3)\n"
        "assert len(plus_clique_descent(seeds, (3,), 5, 3)) > 1\n"
        "assert len(generate_family(sp, seeds).output)\n"
        "assert len(generate_family_cone_split(sp, seeds, cone).output)\n"
        "assert 'multiprocessing.connection' not in sys.modules\n"
    )
    src = str(Path(search.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path), check=True, timeout=60
    )


def _fail_in_caller(task):
    raise ValueError(f"task {task} failed")


def test_a_task_run_by_the_caller_raises_unchanged_and_ends_the_pool():
    with worker_pool(2) as pool:
        with pytest.raises(ValueError, match="task 7 failed") as info:
            _dispatch(_fail_in_caller, [7], None, 2)
        # raised where it ran, not relayed from a worker process
        assert info.value.__cause__ is None
        assert pool.closed
        assert not multiprocessing.active_children()


def _start_time(pid):
    """The start time of process ``pid``, or None once it has exited (a
    zombie counts as exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    fields = stat.rsplit(")", 1)[1].split()
    return None if fields[0] == "Z" else fields[19]


def test_pool_workers_exit_when_the_parent_dies(tmp_path):
    # a parent that dies without closing its pool (a signal, the OOM
    # killer, os._exit) must not leave its workers asleep on their pipes
    pids = tmp_path / "pids"
    script = (
        "import os\n"
        "from folkman.search import _Pool\n"
        "pool = _Pool(2)\n"
        f"with open({str(pids)!r}, 'w') as f:\n"
        "    f.write(' '.join(str(p.pid) for p in pool.procs))\n"
        "os._exit(0)\n"
    )
    src = str(Path(search.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # an inherited stdout pipe would stay open as long as a worker lives
    subprocess.run(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=60,
    )
    # a pid is matched with its start time, so a reused pid is not taken
    # for a worker
    started = {pid: _start_time(pid) for pid in map(int, pids.read_text().split())}
    assert len(started) == 2

    def running():
        return [pid for pid, at in started.items() if at and _start_time(pid) == at]

    try:
        deadline = time.monotonic() + 5
        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running()
    finally:
        for pid in running():
            os.kill(pid, signal.SIGKILL)


def test_join_example_host():
    # the empty host on three vertices extends to the complete bipartite
    # graph on 2 + 3 vertices
    h = Graph.empty(3)
    (masks,) = valid_multisets(h, 3, 2, 3)
    g = attach_vertices(h, masks)
    assert canonical_form(g) == canonical_form(join(Graph.empty(2), Graph.empty(3)))
