"""Numeric bound calculus for vertex Folkman numbers.

Everything here is arithmetic over the target-vector invariants m (the
complete-graph arrowing threshold) and p (the largest clique target), backed
by a registry of established constants, plus the machine-checkable emptiness
certificate that turns a chain of exhausted searches into a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .arrowing import canonicalize
from .graphs import Graph, GraphError, join
from .search import Family


class RegistryError(GraphError):
    """A needed constant is not in the registry."""


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    value: int
    citation: str


class Registry:
    """Read-only table of established Folkman and Ramsey values."""

    def __init__(self, entries):
        self._entries = {e.name: e for e in entries}

    def __len__(self):
        return len(self._entries)

    def entries(self):
        return list(self._entries.values())

    def folkman(self, avec, q: int) -> int:
        vec = canonicalize(avec)
        name = f"F_v({','.join(str(a) for a in vec.entries)};{q})"
        return self._get(name)

    def has_folkman(self, avec, q: int) -> bool:
        vec = canonicalize(avec)
        name = f"F_v({','.join(str(a) for a in vec.entries)};{q})"
        return name in self._entries

    def ramsey(self, s: int, t: int) -> int:
        lo, hi = sorted((s, t))
        return self._get(f"R({lo},{hi})")

    def has_ramsey(self, s: int, t: int) -> bool:
        lo, hi = sorted((s, t))
        return f"R({lo},{hi})" in self._entries

    def _get(self, name: str) -> int:
        entry = self._entries.get(name)
        if entry is None:
            raise RegistryError(f"constant {name} not in registry")
        return entry.value


def load_registry(path=None) -> Registry:
    if path is None:
        text = (
            resources.files("folkman").joinpath("data/known_constants.txt").read_text()
        )
        lines = text.splitlines()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    entries = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, citation = line.partition("|")
        name, _, value = head.partition("=")
        name = name.replace(" ", "")
        entries.append(RegistryEntry(name, int(value.strip()), citation.strip()))
    return Registry(entries)


_default_registry = None


def default_registry() -> Registry:
    global _default_registry
    if _default_registry is None:
        _default_registry = load_registry()
    return _default_registry


# -- existence and the exactly-solvable case ---------------------------------


def exists_folkman(avec, q: int) -> bool:
    """K_q-free arrowing graphs exist exactly when q exceeds every target."""
    return q > canonicalize(avec).p


def folkman_value_at_m(avec) -> tuple[int, Graph]:
    """For q equal to the threshold m the number is exactly m + p, attained
    only by the complete graph on m - p - 1 vertices joined to the complement
    of the (2p+1)-cycle.  Returns the value and that extremal graph."""
    vec = canonicalize(avec)
    m, p = vec.m, vec.p
    if m < p + 1:
        raise GraphError(f"no K_{m}-free arrowing graphs for ({vec})")
    extremal = join(Graph.complete(m - p - 1), Graph.cycle(2 * p + 1).complement())
    defect = Family(vec.entries, m, extremal.n, extremal.n).defect(extremal.adj)
    if defect:
        raise GraphError(f"extremal graph for ({vec}) {defect}")
    return m + p, extremal


def vectors_with_m_p(m: int, p: int) -> list[tuple[int, ...]]:
    """All canonical target vectors with threshold m and peak p."""
    if not m >= p >= 2:
        raise GraphError(f"need m >= p >= 2, got m={m}, p={p}")
    out = []

    # one entry pinned to p, the rest at most p, threshold contributions
    # summing to m - p
    def rec(remaining, prefix):
        if remaining == 0:
            out.append(tuple(sorted(prefix + [p])))
            return
        for part in range(2, min(p, remaining + 1) + 1):
            rec(remaining - (part - 1), prefix + [part])

    rec(m - p, [])
    return sorted(set(out))


# -- independence caps for family members -------------------------------------


def independence_cap(avec, n: int):
    """Largest independence number an n-vertex member of the K_{m-1}-free
    arrowing family can have, when n is below m + 3p; None otherwise."""
    vec = canonicalize(avec)
    m, p = vec.m, vec.p
    if n < m + 3 * p:
        return n - m - p
    return None


def independence_floor(q: int, n: int, registry=None) -> int:
    """Smallest independence number forced on n-vertex K_q-free family
    members: 2 as soon as complete graphs are excluded (n >= q), raised by
    any registry Ramsey value R(k, q) at or below n."""
    registry = registry or default_registry()
    if n < q:
        raise GraphError("floor argument needs n >= q")
    floor = 2
    k = 3
    while registry.has_ramsey(k, q) and registry.ramsey(k, q) <= n:
        floor = k
        k += 1
    return floor


# -- composite lower bounds ----------------------------------------------------


def composite_lower_bound(avec, alphas=None, registry=None) -> int:
    """Lower bound for the K_{p+1}-free Folkman number of the given vector:
    the two-two-p base value plus independence contributions, one per
    threshold step from 3 up to m - p, each at least 2 unless the caller
    supplies a better bound in ``alphas`` (a map index -> value)."""
    registry = registry or default_registry()
    vec = canonicalize(avec)
    m, p = vec.m, vec.p
    base = registry.folkman((2, 2, p), p + 1)
    alphas = alphas or {}
    return base + sum(alphas.get(i, 2) for i in range(3, m - p + 1))


def chain_projection(r0: int, base: int, r: int) -> int:
    """Value of the r-th member of a two-entry chain whose minimum offset is
    attained at r0: base + r - r0."""
    if r < r0:
        raise GraphError(f"projection needs r >= r0, got r={r}, r0={r0}")
    return base + r - r0


# -- emptiness certificates ------------------------------------------------------


@dataclass
class Verdict:
    ok: bool
    bound: int | None
    reason: str
    required: tuple[int, int] | None = None
    covered: list = field(default_factory=list)
    gaps: list = field(default_factory=list)

    def __str__(self):
        if self.ok:
            return f"verified: {self.reason}"
        return f"withheld: {self.reason}"


def verify_emptiness_certificate(avec, q: int, n: int, slices, registry=None) -> Verdict:
    """Check that empty slices cover every feasible independence number of
    the n-vertex family, which proves the Folkman number exceeds n.

    Each slice is ``(avec, q, n, r, t, count)`` from
    ``pipeline.read_step_slices``: a search's count of the family members
    with independence number in [r, t].  It is only as complete as its
    chain's bases, which are not checked here.  The feasible range runs
    from the Ramsey-derived floor up to the cap given by the
    independence-cap law (when q = m - 1) or by deleting an independent set
    against a registry value for the once-decremented vector.
    """
    registry = registry or default_registry()
    vec = canonicalize(avec)
    m = vec.m
    floor = independence_floor(q, n, registry)
    caps = []
    if q == m - 1:
        cap = independence_cap(vec, n)
        if cap is not None:
            caps.append(cap)
    dec = vec.decremented_first()
    if registry.has_folkman(dec, q):
        caps.append(n - registry.folkman(dec, q))
    if not caps:
        return Verdict(
            ok=False,
            bound=None,
            reason="no independence cap derivable: the cap law needs q = m - 1 "
            "and n < m + 3p, or a registry value for the decremented vector",
        )
    cap = min(caps)
    covered = []
    for ravec, rq, rn, rr, rt, count in slices:
        if canonicalize(ravec).entries != vec.entries or rq != q or rn != n:
            continue
        if count != 0:
            return Verdict(
                ok=False,
                bound=None,
                reason=f"report for independence range [{rr}, {rt}] is nonempty "
                f"({count} graphs)",
                required=(floor, cap),
            )
        covered.append((rr, rt))
    gaps = [
        k
        for k in range(floor, cap + 1)
        if not any(rr <= k <= rt for rr, rt in covered)
    ]
    if gaps:
        return Verdict(
            ok=False,
            bound=None,
            reason=f"independence numbers {gaps} not covered by any empty report",
            required=(floor, cap),
            covered=covered,
            gaps=gaps,
        )
    return Verdict(
        ok=True,
        bound=n + 1,
        reason=f"family empty for all feasible independence numbers "
        f"[{floor}, {cap}]; number is at least {n + 1}",
        required=(floor, cap),
        covered=covered,
    )
