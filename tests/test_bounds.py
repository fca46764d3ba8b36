import pytest

from folkman.arrowing import arrows
from folkman.bounds import (
    RegistryError,
    Verdict,
    chain_projection,
    composite_lower_bound,
    default_registry,
    exists_folkman,
    folkman_value_at_m,
    independence_cap,
    independence_floor,
    load_registry,
    vectors_with_m_p,
    verify_emptiness_certificate,
)
from folkman.cliques import clique_number
from folkman.graphs import GraphError
from tests.oracles import arrows_brute


def test_registry_contents():
    reg = default_registry()
    assert reg.folkman((2, 2), 3) == 5
    assert reg.folkman((3, 3), 4) == 14
    assert reg.folkman((2, 2, 4), 5) == 13
    assert reg.folkman((2, 2, 7), 8) == 20
    assert reg.ramsey(3, 5) == 14
    assert reg.ramsey(8, 3) == 28
    assert all(e.citation for e in reg.entries())
    with pytest.raises(RegistryError):
        reg.folkman((9, 9), 10)


def test_registry_file_roundtrip(tmp_path):
    p = tmp_path / "reg.txt"
    p.write_text("# comment\nF_v(2,2;3) = 5 | classical\nR(3,5) = 14 | survey\n")
    reg = load_registry(p)
    assert len(reg) == 2
    assert reg.folkman((2, 2), 3) == 5


def test_existence():
    assert exists_folkman((2, 2, 7), 8)
    assert not exists_folkman((7, 7), 7)
    # q = m + 1 always exists since m >= p + 1 > p
    assert exists_folkman((3, 4), 7)


def test_existence_at_m_minus_one():
    # the q = m - 1 family exists exactly when m >= p + 2
    from folkman.arrowing import canonicalize

    for entries in ((2, 2), (2, 7), (2, 2, 7), (3, 3), (4,)):
        v = canonicalize(entries)
        assert exists_folkman(v, v.m - 1) == (v.m >= v.p + 2)


def test_value_at_m_22():
    value, extremal = folkman_value_at_m((2, 2))
    assert value == 5
    assert extremal.n == 5
    assert clique_number(extremal) == 2
    assert arrows_brute(extremal, (2, 2))


def test_value_at_m_23():
    value, extremal = folkman_value_at_m((2, 3))
    assert value == 7
    assert clique_number(extremal) == 3
    assert arrows_brute(extremal, (2, 3))


def test_value_at_m_33():
    value, extremal = folkman_value_at_m((3, 3))
    assert value == 8
    assert extremal.n == 8
    assert arrows_brute(extremal, (3, 3))
    assert clique_number(extremal) < 5


def test_value_at_m_needs_headroom():
    with pytest.raises(GraphError):
        folkman_value_at_m((4,))  # m = 4 = p


def test_vector_enumeration():
    assert vectors_with_m_p(4, 3) == [(2, 3)]
    assert vectors_with_m_p(5, 3) == [(2, 2, 3), (3, 3)]
    assert vectors_with_m_p(9, 7) == [(2, 2, 7), (3, 7)]
    assert vectors_with_m_p(3, 3) == [(3,)]
    for entries in vectors_with_m_p(8, 4):
        assert max(entries) == 4
        assert sum(a - 1 for a in entries) + 1 == 8
    assert (2, 2, 2, 2, 4) in vectors_with_m_p(8, 4)


def test_independence_cap():
    assert independence_cap((2, 2, 2, 7), 20) == 3
    assert independence_cap((2, 2, 7), 19) == 3
    assert independence_cap((2, 2, 7), 40) is None


def test_independence_floor():
    assert independence_floor(5, 18) == 3  # via R(3,5) = 14
    assert independence_floor(9, 20) == 2
    assert independence_floor(8, 28) == 3  # via R(3,8) = 28


def test_composite_lower_bound_values():
    # peak 7 with default contributions is 2m + 2
    for m in range(9, 16):
        vec = (2,) * (m - 7) + (7,)
        assert composite_lower_bound(vec) == 2 * m + 2
    assert composite_lower_bound((2,) * 6 + (7,)) == 28  # m = 13
    assert composite_lower_bound((7, 7), {6: 3}) == 29
    for m in range(13, 18):
        vec = (2,) * (m - 7) + (7,)
        alphas = {i: 3 for i in range(6, m - 7 + 1)}
        assert composite_lower_bound(vec, alphas) == 3 * m - 10
    assert composite_lower_bound((2, 2, 7)) == 20  # empty sum


def test_composite_monotone_in_m():
    values = [
        composite_lower_bound((2,) * (m - 7) + (7,)) for m in range(9, 20)
    ]
    assert values == sorted(values)


def test_composite_needs_registry_value():
    with pytest.raises(RegistryError):
        composite_lower_bound((3, 3))  # no (2,2,3;4) value in the registry


def test_chain_projection():
    assert chain_projection(2, 20, 2) == 20
    for m in range(9, 15):
        assert chain_projection(2, 20, m - 7) == m + 11
    assert chain_projection(2, 13, 3) == 14
    with pytest.raises(GraphError):
        chain_projection(3, 20, 2)


def _report(avec, q, n, r, t, count):
    return (avec, q, n, r, t, count)


def test_certificate_accepts_full_coverage():
    reports = [
        _report((2, 2, 2, 7), 9, 20, 2, 2, 0),
        _report((2, 2, 2, 7), 9, 20, 3, 3, 0),
    ]
    verdict = verify_emptiness_certificate((2, 2, 2, 7), 9, 20, reports)
    assert verdict.ok and verdict.bound == 21


def test_certificate_window_reports_cover_ranges():
    reports = [_report((2, 2, 2, 7), 9, 20, 2, 3, 0)]
    verdict = verify_emptiness_certificate((2, 2, 2, 7), 9, 20, reports)
    assert verdict.ok


def test_certificate_rejects_gaps():
    reports = [_report((2, 2, 2, 7), 9, 20, 2, 2, 0)]
    verdict = verify_emptiness_certificate((2, 2, 2, 7), 9, 20, reports)
    assert not verdict.ok and verdict.gaps == [3]


def test_certificate_rejects_nonempty():
    reports = [
        _report((2, 2, 2, 7), 9, 20, 2, 2, 1),
        _report((2, 2, 2, 7), 9, 20, 3, 3, 0),
    ]
    verdict = verify_emptiness_certificate((2, 2, 2, 7), 9, 20, reports)
    assert not verdict.ok


def test_certificate_uses_registry_cap():
    # q = 5 is not m - 1 for this vector; the cap comes from deleting an
    # independent set against the registry value 13
    reports = [
        _report((2, 2, 2, 4), 5, 18, 3, 3, 0),
        _report((2, 2, 2, 4), 5, 18, 4, 4, 0),
        _report((2, 2, 2, 4), 5, 18, 5, 5, 0),
    ]
    verdict = verify_emptiness_certificate((2, 2, 2, 4), 5, 18, reports)
    assert verdict.ok and verdict.bound == 19 and verdict.required == (3, 5)


def test_certificate_withheld_without_cap():
    verdict = verify_emptiness_certificate((9, 9), 10, 40, [])
    assert not verdict.ok
    assert isinstance(verdict, Verdict)


def test_certificate_for_the_deep_chain_target():
    # the 22-vertex target of the longest shipped chain: cap 3 from the
    # independence-cap law, floor 2, so two empty slices certify > 22
    vec = (2, 2, 2, 2, 2, 7)
    reports = [
        _report(vec, 11, 22, 2, 2, 0),
        _report(vec, 11, 22, 3, 3, 0),
    ]
    verdict = verify_emptiness_certificate(vec, 11, 22, reports)
    assert verdict.ok and verdict.bound == 23 and verdict.required == (2, 3)


def test_extremal_graph_sweep():
    # the constructed extremal graph arrows its vector below the threshold
    # clique bound for every small canonical vector
    from itertools import combinations_with_replacement

    from folkman.arrowing import canonicalize

    for s in (1, 2, 3):
        for entries in combinations_with_replacement(range(2, 5), s):
            vec = canonicalize(entries)
            if vec.m < vec.p + 1 or vec.m + vec.p > 11:
                continue
            value, extremal = folkman_value_at_m(vec)
            assert value == vec.m + vec.p == extremal.n
            assert clique_number(extremal) < vec.m
            assert arrows(extremal, vec)


def test_ignores_unrelated_reports():
    reports = [
        _report((2, 2, 2, 7), 9, 20, 2, 3, 0),
        _report((5,), 8, 10, 2, 3, 3),  # different family, nonzero, ignored
    ]
    assert verify_emptiness_certificate((2, 2, 2, 7), 9, 20, reports).ok


def test_min_over_vector_class_is_all_twos(rng):
    # the all-twos-plus-peak vector never beats any sibling vector with the
    # same threshold and peak, checked where both sides are decidable by
    # brute search over small orders
    from folkman.cliques import has_clique
    from tests.oracles import graph_classes

    def smallest_order(entries, q, max_n=7):
        for n in range(1, max_n + 1):
            for g in graph_classes(n):
                if not has_clique(g, q) and arrows_brute(g, entries):
                    return n
        return None

    # m = 4, p = 2: vectors (2,2,2) vs ... S(4,2) = {(2,2,2)} only; use m=4,p=3
    for m, p, q in ((4, 3, 4), (5, 3, 5)):
        values = {}
        for entries in vectors_with_m_p(m, p):
            values[entries] = smallest_order(entries, q)
        all_twos = (2,) * (m - p) + (p,)
        decided = {k: v for k, v in values.items() if v is not None}
        if all_twos in decided:
            assert decided[all_twos] == min(decided.values())
