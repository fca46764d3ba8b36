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
from folkman.graphs import CapacityError, Graph, adj_to_graph6, bits_of, join
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
    maximal_ktfree_brute,
    maximal_ktfree_recursive,
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


def _public_names(module):
    # the names a kernel module defines itself, not those it imports
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", module.__name__) == module.__name__
    }


@needs_compiled
def test_compiled_twin_exports_the_pure_twins_names():
    assert _public_names(cy) == _public_names(py)
    assert {"descent_children", "canonical_line", "arrows"} <= _public_names(py)
    assert {"maximal_kt_free_subsets", "valid_multisets", "extension_lines"} <= _public_names(py)
    assert {"graph6_adj", "cone_count"} <= _public_names(py)
    assert cy.COVER_MAX == py.COVER_MAX


def _random_regular(rng, n, d):
    # a uniform pairing of n * d stubs, drawn again until it has no loop
    # and no repeated edge
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        adj = [0] * n
        for u, v in zip(stubs[::2], stubs[1::2]):
            if u == v or adj[u] >> v & 1:
                break
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        else:
            return tuple(adj)


def _paley(p):
    squares = {x * x % p for x in range(1, p)}
    return tuple(sum(1 << w for w in range(p) if (w - v) % p in squares) for v in range(p))


@needs_compiled
def test_backend_parity_of_canonical_lines(rng):
    # On regular graphs refinement splits nothing at the root, so many
    # leaves with different codes compete and the order of the compiled
    # leaf codes decides the line; the line must also be graph6 of the
    # compiled permutation, header and padding included (the long header
    # from 63 vertices).
    cases = [_petersen().adj, _paley(13)]
    for d in (3, 4, 5):
        for n in range(10, 25):
            if n * d % 2 == 0:
                cases.append(_random_regular(rng, n, d))
    cases += [_random_adj(rng, n, p) for n in (0, 1, 2, 3, 61, 62, 63, 64) for p in (0.05, 0.5)]
    for adj in cases:
        line = py.canonical_line(adj)
        assert line == adj_to_graph6(len(adj), adj, py.canonical_perm(adj))
        assert cy.canonical_line(adj) == line, adj
        assert cy.canonical_line(adj) == adj_to_graph6(len(adj), adj, cy.canonical_perm(adj)), adj


def _trailing_cones(adj):
    # the trailing vertices adjacent to every vertex before them
    n = len(adj)
    for j in range(n - 1, -1, -1):
        if adj[j] & ((1 << j) - 1) != (1 << j) - 1:
            return n - 1 - j
    return n


def test_graph6_decoders_on_valid_lines(rng):
    # orders 0-64 (the "~" long form from 63) at five densities, bare, in
    # blanks and after the ">>graph6<<" header; a graph joined to a few
    # cone vertices, listed last, gives cone_count something to find
    cases = []
    for n in range(65):
        for p in (0, 0.1, 0.5, 0.9, 1):
            cases.append(_random_adj(rng, n, p))
        if n >= 3:
            cones = rng.randint(1, 3)
            cases.append(join(Graph(n - cones, _random_adj(rng, n - cones, 0.5)), Graph.complete(cones)).adj)
    for adj in cases:
        line = adj_to_graph6(len(adj), adj)
        cones = _trailing_cones(adj)
        for text in (line, f" \t{line}\r\n", f">>graph6<<{line}", f"\v>>graph6<<{line}\f "):
            for name, kernels in available_backends().items():
                assert kernels.graph6_adj(text) == tuple(adj), (name, text)
                assert kernels.cone_count(text) == cones, (name, text)


_G6_RANGE = "".join(map(chr, range(63, 127)))
# bytes outside the graph6 range that line stripping keeps, Latin-1 included
_OUTSIDE = [chr(c) for c in range(256) if not 63 <= c <= 126 and chr(c) not in " \t\n\r\v\f"]


@st.composite
def _valid_lines(draw):
    n = draw(st.integers(0, 64))
    bits = draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
    adj = [0] * n
    k = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if bits >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj_to_graph6(n, adj)


@st.composite
def _malformed_lines(draw):
    # one defect each; graphs.unpack_graph6 rejects every one of them
    line = draw(_valid_lines())
    head = 4 if line.startswith("~") else 1
    kind = draw(st.sampled_from(
        ["range", "long header", "tilde", "length", "padding", "blank", "not str"]
    ))
    if kind == "range":
        i = draw(st.integers(0, len(line)))
        line = line[:i] + draw(st.sampled_from(_OUTSIDE)) + line[i + 1 :]
    elif kind == "long header":
        line = "~" + draw(st.text(_G6_RANGE, max_size=2))
    elif kind == "tilde":
        line = "~~" + draw(st.text(_G6_RANGE, max_size=12))
    elif kind == "length":
        cut = draw(st.integers(1, 3))
        if len(line) - cut >= head and draw(st.booleans()):
            line = line[:-cut]
        else:
            line += draw(st.text(_G6_RANGE, min_size=cut, max_size=cut))
    elif kind == "padding":
        n = draw(st.integers(2, 64).filter(lambda n: n * (n - 1) // 2 % 6))
        line = adj_to_graph6(n, (0,) * n)
        pad = -(n * (n - 1) // 2) % 6
        line = line[:-1] + chr(63 + draw(st.integers(1, (1 << pad) - 1)))
    elif kind == "blank":
        return draw(st.text(" \t\n\r\v\f", max_size=4))
    else:
        return draw(st.one_of(
            st.none(), st.integers(), st.binary(max_size=4), st.lists(st.integers(), max_size=2)
        ))
    if draw(st.booleans()):
        line = ">>graph6<<" + line
    return draw(st.text(" \t\n", max_size=2)) + line + draw(st.text(" \r\n", max_size=2))


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


@needs_compiled
@settings(max_examples=600, deadline=None, derandomize=True)
@given(_malformed_lines(), st.text(st.characters(max_codepoint=255), max_size=12))
def test_graph6_decoders_fail_alike(line, text):
    # the compiled decoders raise the pure twin's errors, class, message
    # and offset, on lines with one defect each; a random Latin-1 string
    # that happens to be a line must decode alike
    assert _outcome(py.graph6_adj, line)[0] != "ok", line
    for arg in (line, text):
        for name in ("graph6_adj", "cone_count"):
            want = _outcome(getattr(py, name), arg)
            assert _outcome(getattr(cy, name), arg) == want, (name, arg)


@needs_compiled
def test_compiled_graph6_decoders_delegate_their_errors(monkeypatch):
    # wrong argument counts raise the pure twin's TypeError, and a line the
    # pure twin accepts after the compiled one rejected it is a SystemError
    for name in ("graph6_adj", "cone_count"):
        for args in ((), ("A_", "A_")):
            assert _outcome(getattr(cy, name), *args) == _outcome(getattr(py, name), *args)
        monkeypatch.setattr(py, name, lambda line: 0)
        with pytest.raises(SystemError):
            getattr(cy, name)("A`")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs(6), st.lists(st.integers(2, 4), max_size=3).map(sorted).map(tuple))
def test_arrows_matches_brute_force(g, entries):
    want = arrows_brute(g, entries)
    for name, kernels in available_backends().items():
        assert kernels.arrows(g.adj, entries) == want, (name, g.adj, entries)


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
        dead = tuple(rng.getrandbits(n) & row for row in adj)
        for f, args in (
            (cy.max_clique_size, ()),
            (cy.max_clique_size_within, (mask,)),
            (cy.has_clique_within, (mask, t)),
            (cy.has_clique_at_least, (t,)),
            (cy.is_plus_k, (t,)),
            (cy.free_partition, (limits,)),
            (cy.arrows, ([2, 3],)),
            (cy.twin_pairs, ()),
            (cy.canonical_perm, ()),
            (cy.canonical_line, ()),
            (cy.descent_children, (dead, (2, 3), t + 2, 3)),
            (cy.maximal_kt_free_subsets, (t + 1, mask)),
            (cy.valid_multisets, (t + 2, 2, 3)),
            (cy.extension_lines, ((2, 3), t + 2, 2, 3)),
        ):
            assert f(rows, *args) == f(adj, *args), (f.__name__, adj)
        assert cy.extension_lines(adj, [2, 3], t + 2, 2, 3) == cy.extension_lines(
            adj, (2, 3), t + 2, 2, 3
        )
        assert cy.arrows(adj, [2, 3]) == cy.arrows(adj, (2, 3))
        assert cy.descent_children(adj, list(dead), [2, 3], t + 2, 3) == cy.descent_children(
            adj, dead, (2, 3), t + 2, 3
        )


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
        (cy.arrows, ((2, 3),)),
        (cy.twin_pairs, ()),
        (cy.canonical_perm, ()),
        (cy.canonical_line, ()),
        (cy.descent_children, (adj, (), 4, 3)),
        (cy.child_is_plus_k, (0, 1, 4)),
        (cy.maximal_kt_free_subsets, (2, 0)),
        (cy.valid_multisets, (4, 2, 3)),
        (cy.extension_lines, ((), 4, 2, 3)),
    ):
        with pytest.raises(ValueError):
            f(adj, *args)


@needs_compiled
def test_compiled_descent_children_rejects_malformed_tasks():
    # the child loop reads the degree of every vertex that a row names
    with pytest.raises(ValueError):
        cy.descent_children((1 << 5, 0), (0, 0), (), 4, 3)
    with pytest.raises(ValueError):
        cy.descent_children((2, 1), (0,), (), 4, 3)


@needs_compiled
def test_compiled_child_is_plus_k_rejects_a_non_edge_and_a_wrong_verdict_array():
    # the test reads the rows of u and v and, through the verdict array,
    # n * n bytes
    path = (2, 5, 2)  # the path 0 - 1 - 2
    assert cy.child_is_plus_k(path, 0, 1, 3, bytearray(9)) == py.child_is_plus_k(path, 0, 1, 3)
    for u, v in ((0, 2), (1, 1), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            cy.child_is_plus_k(path, u, v, 3)
    for verdict in (bytearray(8), bytes(9), [0] * 9):
        with pytest.raises(ValueError):
            cy.child_is_plus_k(path, 0, 1, 3, verdict)
    with pytest.raises(TypeError):
        cy.child_is_plus_k(path, 0, 1)


def test_extension_kernels_reject_what_the_pure_twin_rejects():
    # a threshold below 1, a negative multiset size, and more than 64
    # vertices once the new ones are attached (graphs.attach's error);
    # on the empty 63-vertex host at q = 3 the one maximal K_2-free set,
    # all of it, fixes every non-edge, so the pair of it is valid
    host = (0,) * 63
    assert py.valid_multisets(host, 3, 2, 3) == [(py.maximal_kt_free_subsets(host, 2, 0)[0],) * 2]
    for name, kernels in available_backends().items():
        for t in (0, -1):
            with pytest.raises(ValueError):
                kernels.maximal_kt_free_subsets((0, 0), t, 0)
            with pytest.raises(ValueError):
                kernels.valid_multisets((0, 0), t + 1, 2, 3)
        with pytest.raises(ValueError):
            kernels.valid_multisets((0, 0), 3, -1, 3)
        with pytest.raises(CapacityError):
            kernels.extension_lines(host, (), 3, 2, 3)
        assert kernels.extension_lines(host, (), 3, 1, 3) == py.extension_lines(host, (), 3, 1, 3), name


@needs_compiled
def test_compiled_extension_kernels_reject_rows_beyond_the_host():
    # the deficient cover reads the row of every vertex a row names
    for f, args in (
        (cy.valid_multisets, (4, 2, 3)),
        (cy.extension_lines, ((), 4, 2, 3)),
    ):
        with pytest.raises(ValueError):
            f((1 << 5, 0), *args)


@st.composite
def _graphs_thresholds_and_keeps(draw):
    g = draw(graphs(16))
    t = draw(st.integers(1, 5))
    keep = draw(st.integers(0, g.full_mask())) & draw(st.integers(0, g.full_mask()))
    return g, t, keep


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_graphs_thresholds_and_keeps())
def test_maximal_kt_free_subsets_match_brute_force(case):
    # both twins give every maximal K_t-free set that holds keep, in
    # ascending order: against a scan of every subset, or past 12
    # vertices, where that scan takes seconds, an include/exclude recursion
    g, t, keep = case
    every = maximal_ktfree_brute(g, t) if g.n <= 12 else maximal_ktfree_recursive(g, t)
    want = [m for m in every if m & keep == keep]
    for name, kernels in available_backends().items():
        assert kernels.maximal_kt_free_subsets(g.adj, t, keep) == want, (name, g.adj, t, keep)


@needs_compiled
def test_compiled_maximal_kt_free_subsets_on_61_to_64_vertices(rng):
    # random graphs at their clique number, where the cliques are few, and
    # complete graphs at t = 2, whose 1,830-2,016 edges make the clique
    # sets 29-32 words long and the transversals 60-63 vertices deep
    for n in range(61, 65):
        complete = tuple((1 << n) - 1 ^ 1 << v for v in range(n))
        cases = [(complete, 2)]
        for p in (0.05, 0.3, 0.5, 0.7):
            adj = _random_adj(rng, n, p)
            cases.append((adj, py.max_clique_size(adj)))
        for adj, t in cases:
            for keep in (0, rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)):
                want = py.maximal_kt_free_subsets(adj, t, keep)
                assert cy.maximal_kt_free_subsets(adj, t, keep) == want, (adj, t, keep)
        assert len(py.maximal_kt_free_subsets(complete, 2, 0)) == n


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
