import gc
import itertools
import tracemalloc

import pytest

from folkman.canon import (
    GraphSet,
    canonical_form,
    canonical_line,
    cone_count,
    graph_set_of,
    read_manifest,
    write_manifest,
)
from folkman.graphs import Graph, from_graph6, join, to_graph6
from folkman.search import load_family
from tests.conftest import (
    available_backends,
    cone_vertex_count,
    from_edges,
    random_graph,
    random_permuted,
)
from tests.oracles import relabel_reference


def test_invariance_under_permutation(rng):
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 20), rng.choice((0.2, 0.5, 0.8)))
        assert canonical_form(g) == canonical_form(random_permuted(rng, g))


def test_distinct_graphs_distinct_forms():
    c5 = Graph.cycle(5)
    p5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert canonical_form(c5) != canonical_form(p5)


def test_canonical_form_is_idempotent(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        c = from_graph6(canonical_line(g.adj))
        assert canonical_form(c) == to_graph6(c)


def test_labeled_enumeration_collapses_to_known_class_counts():
    # every labeled graph on n vertices maps onto the known number of classes
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, classes in expected.items():
        forms = set()
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if (bits >> k) & 1]
            forms.add(canonical_form(from_edges(n, edges)))
        assert len(forms) == classes, n


def test_graph_set_insert_semantics(rng):
    s = GraphSet()
    c5 = Graph.cycle(5)
    assert s.insert(c5)
    assert not s.insert(random_permuted(rng, c5))
    p5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert s.insert(p5)
    assert len(s) == 2
    assert canonical_form(c5) in s.lines()


def test_graph_set_refuses_membership_tests():
    # a labeled graph cannot be looked up directly: `in` raises instead of
    # scanning the set
    s = graph_set_of([Graph.cycle(5)])
    with pytest.raises(TypeError):
        Graph.cycle(5) in s
    assert canonical_form(Graph.cycle(5)) in s.lines()


def test_graph_set_insert_labeled_variants():
    s = GraphSet()
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(1 << 6):
        edges = [e for k, e in enumerate(pairs) if (bits >> k) & 1]
        s.insert(from_edges(4, edges))
    assert len(s) == 11


def test_merge_laws():
    # GraphSet.update is the union of isomorphism classes: the empty set is
    # its unit, it is idempotent and commutative, and it leaves its argument
    # unchanged
    def union(x, y):
        out = GraphSet()
        out.update(x)
        out.update(y)
        return out

    a = graph_set_of([Graph.cycle(5), Graph.complete(3)])
    b = graph_set_of([Graph.cycle(5).complement(), Graph.empty(2)])
    a_lines, b_lines = a.lines(), b.lines()
    assert union(a, GraphSet()).lines() == a_lines
    assert union(a, a).lines() == a_lines
    assert union(a, b).lines() == union(b, a).lines()
    assert len(union(a, b)) == 3  # C5 is self-complementary
    a.update(b)
    assert a.lines() == sorted(set(a_lines) | set(b_lines))
    assert b.lines() == b_lines


def test_set_size_independent_of_insertion_order(rng):
    graphs = [random_graph(rng, 7, 0.5) for _ in range(40)]
    s1 = graph_set_of(graphs)
    s2 = graph_set_of(reversed(graphs))
    assert s1.lines() == s2.lines()


def test_persistence_roundtrip(tmp_path, rng):
    s = graph_set_of(random_graph(rng, rng.randint(1, 9), 0.5) for _ in range(30))
    path = tmp_path / "set.g6"
    s.save(path)
    content = path.read_bytes()
    assert content == ("\n".join(s.lines()) + "\n").encode()
    assert load_family(path).lines() == s.lines()
    assert GraphSet.load_trusted(path).lines() == s.lines()


def test_load_recanonicalizes_foreign_labelings(tmp_path, rng):
    g = random_graph(rng, 8, 0.5)
    path = tmp_path / "raw.g6"
    with open(path, "w") as fh:
        for _ in range(5):
            fh.write(to_graph6(random_permuted(rng, g)) + "\n")
    loaded = load_family(path)
    assert len(loaded) == 1
    assert loaded.lines() == [canonical_form(g)]


def test_canonical_form_agrees_between_backends(rng):
    backends = available_backends()
    if "compiled" not in backends:
        import pytest

        pytest.skip("compiled backend unavailable")
    py, cy = backends["python"], backends["compiled"]
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 14), rng.random())
        assert py.canonical_perm(g.adj) == cy.canonical_perm(g.adj)


def test_roundtrip_through_file(tmp_path):
    g = Graph.cycle(9).complement()
    line = canonical_form(g)
    p = tmp_path / "one.g6"
    p.write_text(line + "\n")
    assert canonical_form(from_graph6(line)) == line


def test_canonical_line_encodes_the_relabeled_graph(rng, monkeypatch):
    from folkman import _kernels

    for name, backend in available_backends().items():
        monkeypatch.setattr(_kernels, "impl", backend)
        # near-empty or near-complete graphs on dozens of vertices have huge
        # automorphism groups: the pure search labels them in milliseconds,
        # the compiled one in up to seconds, so only the pure one draws them
        if name == "python":
            densities = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)
        else:
            densities = (0.3, 0.5, 0.7)
        for n in range(65):  # n = 63 and 64 take the long-form header
            g = random_graph(rng, n, rng.choice(densities))
            perm = backend.canonical_perm(g.adj)
            assert canonical_line(g.adj) == to_graph6(relabel_reference(g, perm)), n


def test_canonical_line_invariant_on_large_automorphism_groups(rng, monkeypatch):
    # near-empty and near-complete graphs on dozens of vertices, whose huge
    # automorphism groups once took the pure search seconds to minutes
    from folkman import _kernels, _kernels_py

    monkeypatch.setattr(_kernels, "impl", _kernels_py)
    for n, p in ((25, 0.985), (20, 0.02), (30, 0.99)):
        g = random_graph(rng, n, p)
        line = canonical_line(g.adj)
        for _ in range(3):
            assert canonical_line(random_permuted(rng, g).adj) == line, (n, p)


def test_graph_set_decodes_each_line_afresh_on_every_iteration(tmp_path, rng):
    graphs = [random_graph(rng, rng.randint(0, 9), 0.5) for _ in range(20)]
    lines = sorted({canonical_form(g) for g in graphs})
    s = GraphSet()
    for line in lines:
        s.insert_canonical(line)
    assert list(s) == [from_graph6(line) for line in s.lines()]
    assert all(a is not b for a, b in zip(s, s))
    path = tmp_path / "set.g6"
    s.save(path)
    loaded = GraphSet.load_trusted(path)
    assert list(loaded) == [from_graph6(line) for line in loaded.lines()]
    for g in graphs:
        one = GraphSet()
        one.insert(g)
        assert list(one) == [from_graph6(canonical_line(g.adj))]


def test_graph_set_iteration_retains_no_graphs(rng):
    # a family in flight costs its lines alone: walking it, by iteration or
    # as a list, leaves no decoded graph behind
    def random_set(count):
        s = GraphSet()
        for _ in range(count):
            s.insert(random_graph(rng, rng.randint(8, 12), 0.5))
        return s

    def walk(s):
        for g in s:
            assert g.n >= 8
        assert len(list(s)) == len(s)

    small, big = random_set(20), random_set(2000)
    walk(small)  # one-time allocations happen here, before tracing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        walk(big)
        gc.collect()  # a full collection empties the tuple free lists
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(big) > 1900
    assert retained < 1024


def test_failed_writes_keep_the_old_file(tmp_path):
    # a write that raises partway leaves the previous file intact and no
    # temporary file next to it
    class DiskFull(GraphSet):
        def lines(self):
            yield from super().lines()[:1]
            raise OSError("disk full")

    class Unwritable:
        def __format__(self, spec):
            raise OSError("disk full")

    target = tmp_path / "family.g6"
    graph_set_of([Graph.cycle(5)]).save(target)
    before = target.read_bytes()
    failing = DiskFull()
    for g in (Graph.complete(3), Graph.cycle(4)):
        failing.insert(g)
    with pytest.raises(OSError):
        failing.save(target)
    assert target.read_bytes() == before
    meta = tmp_path / "family.meta"
    write_manifest(meta, {"count": 1})
    with pytest.raises(OSError):
        write_manifest(meta, {"count": 2, "seconds": Unwritable()})
    assert read_manifest(meta) == {"count": "1"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["family.g6", "family.meta"]


def _with_cones(rng, n, cones, p):
    """A G(n - cones, p) graph joined to K_cones, relabeled at random."""
    g = join(Graph.complete(cones), random_graph(rng, n - cones, p))
    return random_permuted(rng, g)


def test_canonical_labelings_list_vertices_in_nondecreasing_degree(rng):
    # cone_count rests on this: the cone vertices come last
    for name, backend in available_backends().items():
        for n in range(65):
            for cones in {0, min(n, 1), min(n, 2)}:
                g = _with_cones(rng, n, cones, rng.choice((0.3, 0.5, 0.7)))
                degrees = [g.adj[v].bit_count() for v in backend.canonical_perm(g.adj)]
                assert degrees == sorted(degrees), (name, n, cones)


def test_cone_count_agrees_with_decoding(rng, monkeypatch):
    from folkman import _kernels

    seen = set()
    for backend in available_backends().values():
        monkeypatch.setattr(_kernels, "impl", backend)
        for n in (0, 1, 2, 3, 5, 62, 63, 64):
            for cones in {min(n, c) for c in range(4)}:
                for p in (0.3, 0.9):
                    line = canonical_line(_with_cones(rng, n, cones, p).adj)
                    want = cone_vertex_count(from_graph6(line))
                    assert cone_count(line) == want, (n, cones, p)
                    seen.add(want)
    assert {0, 1, 2, 3} <= seen
