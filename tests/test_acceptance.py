"""Acceptance suite: every criterion pinned at exact integer equality.

Each criterion prints one PASS line when it holds (run with ``pytest -s``
to watch them); a failing assertion marks the criterion FAIL.  The heavy
enumeration chains run once per session and are shared across criteria.
"""

import filecmp
import random
from pathlib import Path

import pytest

from folkman.arrowing import ArrowVector, arrows
from folkman.bounds import chain_projection, composite_lower_bound, folkman_value_at_m
from folkman.canon import canonical_form
from folkman.cliques import clique_number, has_clique, is_plus_kt
from folkman.generate import maximal_family_exhaustive
from folkman.graphs import Graph, from_graph6
from folkman.pipeline import run_pipeline
from folkman.search import (
    FamilySpec,
    complete_base,
    generate_family,
    generate_family_cone_split,
)
from tests.conftest import random_graph
from tests.oracles import arrows_brute, graph_classes

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _rows_by_family(rows):
    return {row.family.display(): row for row in rows}


@pytest.fixture(scope="session")
def q8_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("q8")
    _, rows = run_pipeline(CONFIGS / "chain_q8_small.cfg", out, workers=1)
    return out, _rows_by_family(rows)


@pytest.fixture(scope="session")
def q9_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("q9")
    _, rows = run_pipeline(CONFIGS / "chain_q9_small.cfg", out, workers=4)
    return _rows_by_family(rows)


@pytest.fixture(scope="session")
def q5_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("q5")
    _, rows = run_pipeline(CONFIGS / "chain_q5_small.cfg", out, workers=4)
    return _rows_by_family(rows)


def test_criterion_1_q8_chains(q8_run):
    _, rows = q8_run
    expected = {
        "H(3; 8; 6)": (1, 1),
        "H(4; 8; 8)": (1, 4),
        "H(5; 8; 10)": (3, 45),
        "H(6; 8; 12)": (12, 3104),
        "H(3; 8; 7)": (1, 1),
        "H(4; 8; 9)": (1, 8),
        "H(5; 8; 11)": (3, 84),
        "H(6; 8; 13)": (10, 5394),
    }
    for family, (maximal, plusk) in expected.items():
        row = rows[family]
        assert (row.maximal, row.plusk) == (maximal, plusk), family
    print("ACCEPTANCE 1 PASS: q = 8 chains reproduce all eight pinned count pairs")


def test_criterion_2_q9_chains(q9_rows):
    expected = {
        # family: (maximal, maximal cone-free, plus-clique, plus-clique cone-free)
        "H(4; 9; 7)": (1, 0, 1, 0),
        "H(5; 9; 9)": (1, 0, 4, 0),
        "H(6; 9; 11)": (3, 0, 45, 0),
        "H(4; 9; 8)": (1, 0, 1, 0),
        "H(5; 9; 10)": (1, 0, 8, 0),
        "H(6; 9; 12)": (3, 0, 85, 1),
    }
    for family, counts in expected.items():
        row = q9_rows[family]
        got = (row.maximal, row.maximal_cone_free, row.plusk, row.plusk_cone_free)
        assert got == counts, (family, got)
    print("ACCEPTANCE 2 PASS: q = 9 cone-split chains match, cone-free columns included")


def test_criterion_3_q5_rows(q5_rows):
    expected = {
        "H(3; 5; 8)": (7, 274),
        "H(3; 5; 9)": (11, 2252),
        "H(4; 5; 10)": (44, 65422),
    }
    for family, (maximal, plusk) in expected.items():
        row = q5_rows[family]
        assert (row.maximal, row.plusk) == (maximal, plusk), family
    print("ACCEPTANCE 3 PASS: q = 5 bases and first extension match 7/274, 11/2252, 44/65422")


def test_criterion_4_smallest_two_two_witness():
    # no graph on up to 4 vertices is triangle-free and arrows (2,2);
    # exactly one 5-vertex class does, the five-cycle
    for n in range(1, 5):
        for g in graph_classes(n):
            assert not (not has_clique(g, 3) and arrows(g, (2, 2)))
    hits = [
        g
        for g in graph_classes(5)
        if not has_clique(g, 3) and arrows(g, (2, 2))
    ]
    assert len(hits) == 1
    assert canonical_form(hits[0]) == canonical_form(Graph.cycle(5))
    value, extremal = folkman_value_at_m((2, 2))
    assert value == 5 and canonical_form(extremal) == canonical_form(Graph.cycle(5))
    print("ACCEPTANCE 4 PASS: the (2,2) number is 5 with the five-cycle unique")


def test_criterion_5_two_three_instances():
    value, extremal = folkman_value_at_m((2, 3))
    assert value == 7
    c7c = Graph.cycle(7).complement()
    assert canonical_form(extremal) == canonical_form(c7c)
    assert clique_number(c7c) == 3
    assert arrows(c7c, (2, 3))
    # all 156 six-vertex classes: nothing K4-free arrows (2,3)
    empty = [
        g
        for g in graph_classes(6)
        if not has_clique(g, 4) and arrows(g, (2, 3))
    ]
    assert empty == []
    print("ACCEPTANCE 5 PASS: (2,3) value 7 via the 7-cycle complement; no 6-vertex member")


def test_criterion_6i_arrowing_oracle():
    rng = random.Random(0xA11CE)
    disagreements = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        s = rng.randint(1, 3)
        g = random_graph(rng, n, rng.choice((0.25, 0.5, 0.75)))
        entries = tuple(rng.randint(2, 4) for _ in range(s))
        if arrows(g, entries) != arrows_brute(g, entries):
            disagreements += 1
    assert disagreements == 0
    print("ACCEPTANCE 6i PASS: arrowing agrees with the exhaustive colouring oracle, 200 graphs")


def test_criterion_6ii_generation_vs_brute_force():
    from folkman.cliques import independence_number

    base = maximal_family_exhaustive((2,), 4, 4, 3)
    mid = generate_family(FamilySpec(ArrowVector((3,)), 4, 6, 2, 3), base)
    out = generate_family(FamilySpec(ArrowVector((3,)), 4, 8, 2, 3), mid.output)
    brute = {
        canonical_form(g)
        for g in graph_classes(8)
        if has_clique(g, 3)
        and not has_clique(g, 4)
        and is_plus_kt(g, 4)
        and independence_number(g) <= 3
    }
    assert set(out.output.lines()) == brute
    print(
        "ACCEPTANCE 6ii PASS: q = 4 order-8 generation equals brute-force filtering "
        f"({len(brute)} graphs)"
    )


def test_criterion_6iii_algorithm_equivalence(q8_run):
    out_dir, _ = q8_run
    from folkman.canon import GraphSet

    r4 = GraphSet.load_trusted(out_dir / "maximal_a4_q8_n8_t3.g6")

    # (5; 8; 10): the q - 1 family comes from an auxiliary q = 7 chain
    c1 = complete_base((5,), 7, 5, 3)
    e7 = generate_family(FamilySpec(ArrowVector((6,)), 7, 7, 2, 3), c1)
    e9 = generate_family(FamilySpec(ArrowVector((6,)), 7, 9, 2, 3), e7.output)
    spec = FamilySpec(ArrowVector((5,)), 8, 10, 2, 3)
    one = generate_family(spec, r4)
    two = generate_family_cone_split(spec, r4, e9.output)
    assert one.output.lines() == two.output.lines()

    # (5; 9; 9)
    k7 = complete_base((4,), 9, 7, 3)
    spec = FamilySpec(ArrowVector((5,)), 9, 9, 2, 3)
    one = generate_family(spec, k7)
    two = generate_family_cone_split(spec, k7, r4)
    assert one.output.lines() == two.output.lines()
    print("ACCEPTANCE 6iii PASS: plain and cone-split generation agree on both instances")


def test_criterion_6iv_canonical_class_counts():
    counts = [len(graph_classes(n)) for n in range(1, 8)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044]
    print("ACCEPTANCE 6iv PASS: canonical class counts 1, 2, 4, 11, 34, 156, 1044")


def test_criterion_7_bound_calculus():
    for m in range(9, 16):
        assert composite_lower_bound((2,) * (m - 7) + (7,)) == 2 * m + 2
    assert composite_lower_bound((2,) * 6 + (7,)) == 28
    assert composite_lower_bound((7, 7), {6: 3}) == 29
    for m in range(13, 17):
        alphas = {i: 3 for i in range(6, m - 7 + 1)}
        assert composite_lower_bound((2,) * (m - 7) + (7,), alphas) == 3 * m - 10
    for m in range(9, 15):
        assert chain_projection(2, 20, m - 7) == m + 11
    print("ACCEPTANCE 7 PASS: composite bounds and chain projection reproduce all values")


def test_criterion_8_worker_determinism(q8_run, tmp_path_factory):
    one_dir, _ = q8_run
    eight_dir = tmp_path_factory.mktemp("q8-w8")
    run_pipeline(CONFIGS / "chain_q8_small.cfg", eight_dir, workers=8)
    files = sorted(p.name for p in one_dir.glob("*.g6"))
    assert files == sorted(p.name for p in eight_dir.glob("*.g6"))
    for name in files:
        assert filecmp.cmp(one_dir / name, eight_dir / name, shallow=False), name
    print(
        f"ACCEPTANCE 8 PASS: 1-worker and 8-worker runs byte-identical "
        f"across {len(files)} artifacts"
    )


def test_optional_20_vertex_witness():
    witness = Path(__file__).parent / "data" / "witness20.g6"
    if not witness.exists():
        pytest.skip("no 20-vertex witness supplied")
    g = from_graph6(witness.read_text().strip())
    assert g.n == 20
    assert clique_number(g) < 8
    assert arrows(g, (2, 2, 7))
