import os
import subprocess
import sys
from pathlib import Path

import pytest

from folkman import _kernels
from folkman.graphs import (
    CapacityError,
    Graph,
    Graph6ParseError,
    GraphError,
    attach,
    from_graph6,
    join,
    to_graph6,
)
from tests.conftest import (
    add_edge,
    available_backends,
    degree,
    delete_vertices,
    edge_count,
    from_edges,
    induced,
    mask_of,
    non_edges,
    random_graph,
    remove_edge,
)
from tests.oracles import relabel_reference


def test_constructors():
    k4 = Graph.complete(4)
    assert edge_count(k4) == 6
    assert edge_count(Graph.empty(5)) == 0
    c5 = Graph.cycle(5)
    assert edge_count(c5) == 5
    assert all(degree(c5, v) == 2 for v in range(5))


def test_join_edge_count():
    g = join(Graph.empty(3), Graph.complete(2))
    assert g.n == 5
    assert edge_count(g) == 1 + 3 * 2


def test_join_keeps_operands_induced():
    g1 = Graph.cycle(4)
    g2 = Graph.complete(3)
    g = join(g1, g2)
    assert induced(g, 0b1111) == g1
    assert induced(g, 0b1110000) == g2


def test_join_of_k1s():
    assert join(Graph.complete(1), Graph.complete(1)) == Graph.complete(2)


def test_join_with_empty_graph_is_identity():
    c7c = Graph.cycle(7).complement()
    assert join(Graph.empty(0), c7c) == c7c


def test_join_capacity():
    with pytest.raises(CapacityError):
        join(Graph.empty(40), Graph.empty(30))


def test_join_associative_up_to_isomorphism():
    from folkman.canon import canonical_form

    a, b, c = Graph.cycle(4), Graph.complete(2), Graph.empty(3)
    assert canonical_form(join(join(a, b), c)) == canonical_form(join(a, join(b, c)))


def test_complement_involution():
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 5)])
    assert g.complement().complement() == g


def test_complement_counts():
    assert edge_count(Graph.cycle(7).complement()) == 21 - 7
    assert Graph.complete(6).complement() == Graph.empty(6)


def test_c5_self_complementary():
    from folkman.canon import canonical_form

    c5 = Graph.cycle(5)
    assert canonical_form(c5) == canonical_form(c5.complement())


def test_induced_path():
    c5 = Graph.cycle(5)
    p3 = induced(c5, 0b111)
    assert p3.n == 3
    assert sorted(p3.edges()) == [(0, 1), (1, 2)]


def test_induced_identity_and_relabeling():
    g = from_edges(5, [(0, 4), (1, 3)])
    assert induced(g, g.full_mask()) == g
    sub = induced(g, mask_of({1, 3, 4}))
    assert sorted(sub.edges()) == [(0, 1)]


def test_induced_matches_delete():
    g = Graph.cycle(6)
    keep = mask_of([0, 2, 3, 5])
    assert induced(g, keep) == delete_vertices(g, g.full_mask() & ~keep)


def test_delete_vertices():
    assert edge_count(delete_vertices(Graph.cycle(5), 0b1)) == 3
    assert delete_vertices(Graph.complete(6), 0b100) == Graph.complete(5)
    assert delete_vertices(Graph.cycle(5), 0) == Graph.cycle(5)


def test_vertex_set_outside_universe():
    with pytest.raises(GraphError):
        induced(Graph.cycle(4), mask_of({0, 5}))
    for mask in (1 << 5, -1):
        with pytest.raises(GraphError):
            delete_vertices(Graph.cycle(4), mask)


def test_edge_edits():
    k2 = add_edge(Graph.empty(2), 0, 1)
    assert k2 == Graph.complete(2)
    path = remove_edge(Graph.complete(3), 0, 1)
    assert sorted(path.edges()) == [(0, 2), (1, 2)]
    g = Graph.cycle(5)
    assert remove_edge(add_edge(g, 0, 2), 0, 2) == g


def test_graph6_basics():
    assert to_graph6(Graph.complete(1)) == "@"
    g = from_graph6("D??")
    assert g.n == 5 and edge_count(g) == 0
    assert from_graph6(">>graph6<<D??") == g


def test_graph6_roundtrip_all_4_vertex_graphs():
    for bits in range(1 << 6):
        edges = []
        k = 0
        for j in range(1, 4):
            for i in range(j):
                if (bits >> k) & 1:
                    edges.append((i, j))
                k += 1
        g = from_edges(4, edges)
        assert from_graph6(to_graph6(g)) == g


def test_graph6_roundtrip_random(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        assert from_graph6(to_graph6(g)) == g


def test_graph6_long_form():
    g = Graph.complete(63)
    line = to_graph6(g)
    assert line.startswith("~")
    assert from_graph6(line) == g
    g64 = Graph.empty(64)
    assert from_graph6(to_graph6(g64)) == g64


# Malformed lines with the message and byte offset they are rejected with.
# The checks run in a fixed order: the long form's length and its "~~", the
# header's bytes, the vertex cap, the body's length, its bytes, its padding;
# a line with two defects reports the first check it fails.
MALFORMED_GRAPH6 = [
    ("", "empty graph6 line", 0),
    ("  ", "empty graph6 line", 0),
    (">>graph6<<", "empty graph6 line", 0),
    ("!??", "byte 33 outside graph6 range", 0),
    ("D?!", "byte 33 outside graph6 range", 2),  # '!' is below the range
    ("D?\x7f", "byte 127 outside graph6 range", 2),
    ("D\u00e9?", "byte 233 outside graph6 range", 1),
    ("C\x01", "byte 1 outside graph6 range", 1),
    ("D?", "expected 2 edge bytes for n = 5, got 1", 2),
    ("D???", "expected 2 edge bytes for n = 5, got 3", 3),
    ("F????@", "expected 4 edge bytes for n = 7, got 5", 5),
    ("~", "truncated long-form vertex count", 1),
    ("~?", "truncated long-form vertex count", 2),
    ("~??", "truncated long-form vertex count", 3),
    ("~~AAAA", "vertex count beyond 64 unsupported", 1),
    ("~?!?", "byte 33 outside graph6 range", 2),
    ("~?@\x01", "byte 1 outside graph6 range", 3),
    ("~?A?", "vertex count 128 exceeds 64", 0),
    ("~?@@", "vertex count 65 exceeds 64", 0),
    ("~??~", "expected 326 edge bytes for n = 63, got 0", 4),
    ("A@", "nonzero padding bits", 1),
    ("B~", "nonzero padding bits", 1),
    # two defects each
    ("Cx\x01", "expected 1 edge bytes for n = 4, got 2", 2),
    ("D!", "expected 2 edge bytes for n = 5, got 1", 2),
    ("@\x01", "expected 0 edge bytes for n = 1, got 1", 1),
    ("A@?", "expected 1 edge bytes for n = 2, got 2", 2),
    ("~\x01?", "truncated long-form vertex count", 3),
    ("~~\x01", "truncated long-form vertex count", 3),
    ("~~AA\x01", "vertex count beyond 64 unsupported", 1),
    ("!?\x01", "byte 33 outside graph6 range", 0),
    ("~?A?!", "vertex count 128 exceeds 64", 0),
    ("~?@@!", "vertex count 65 exceeds 64", 0),
    ("D\x01~", "byte 1 outside graph6 range", 1),
]


def test_graph6_errors(monkeypatch):
    # under every kernel backend: from_graph6 decodes through it
    for name, backend in available_backends().items():
        monkeypatch.setattr(_kernels, "impl", backend)
        for line, message, offset in MALFORMED_GRAPH6:
            with pytest.raises(Graph6ParseError) as err:
                from_graph6(line)
            assert str(err.value) == f"{message} (byte offset {offset})", (name, repr(line))
            assert err.value.offset == offset, (name, repr(line))


def test_capacity():
    with pytest.raises(CapacityError):
        Graph.empty(65)


def test_operations_equal_their_checked_construction(rng):
    # the operations build through Graph._trusted, skipping the __debug__
    # scan: each result must equal the Graph(...) built from its edge list
    for n in (0, 1, 2, 5, 9, 13):
        g = random_graph(rng, n)
        h = random_graph(rng, n % 4 + 1)
        edges = list(g.edges())
        assert g.complement() == from_edges(n, non_edges(g))
        mask = rng.getrandbits(n) if n else 0
        keep = [v for v in range(n) if mask >> v & 1]
        pos = {v: i for i, v in enumerate(keep)}
        assert induced(g, mask) == from_edges(
            len(keep), [(pos[u], pos[v]) for u, v in edges if u in pos and v in pos]
        )
        perm = list(range(n))
        rng.shuffle(perm)
        at = {v: i for i, v in enumerate(perm)}
        assert g.relabel(perm) == from_edges(n, [(at[u], at[v]) for u, v in edges])
        cross = [(u, n + v) for u in range(n) for v in range(h.n)]
        shifted = [(n + u, n + v) for u, v in h.edges()]
        assert join(g, h) == from_edges(n + h.n, edges + shifted + cross)
        for out in (g.complement(), induced(g, mask), g.relabel(perm), join(g, h)):
            assert Graph(out.n, out.adj) == out


def test_relabel_matches_the_reference_loop(rng):
    # n = 63 and 64 take graph6's long header
    for n in (0, 1, 2, 62, 63, 64):
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert g.relabel(perm) == relabel_reference(g, perm), n


def test_attach_capacity():
    assert len(attach((0,) * 62, [0, 0])) == 64
    with pytest.raises(CapacityError):
        attach((0,) * 63, [0, 0])


def test_relabel_rejects_a_non_permutation():
    g = Graph.cycle(4)
    for perm in ((0, 1, 2), (0, 1, 2, 2), (1, 2, 3, 4)):
        with pytest.raises(GraphError):
            g.relabel(perm)


def test_invariants_rejected():
    with pytest.raises(GraphError, match="loop at vertex 0"):
        Graph(2, (1, 0))
    with pytest.raises(GraphError, match="asymmetric edge"):
        Graph(2, (2, 0))
    for row in (4, -1):
        with pytest.raises(GraphError, match="outside 0..n-1"):
            Graph(2, (row, 0))


def test_invariants_rejected_under_optimize():
    # python -O drops assert statements; the checks must not be asserts
    code = (
        "from folkman.graphs import Graph, GraphError\n"
        "try:\n"
        "    Graph(2, (2, 0))\n"
        "except GraphError:\n"
        "    print('rejected')\n"
    )
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "rejected\n"


def test_graph6_padding_errors():
    # n = 2 has one edge bit and n = 3 three: the rest of the byte is padding
    for line in ("A@", "B~"):
        with pytest.raises(Graph6ParseError) as err:
            from_graph6(line)
        assert err.value.offset == 1
