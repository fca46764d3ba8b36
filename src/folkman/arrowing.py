"""The vertex arrowing relation and the clique-target vector calculus.

``arrows(g, v)`` asks whether every colouring of V(g) in len(v) colours
produces, for some i, a clique of size v[i] inside colour class i.
Equivalently (and this is how it is decided): no partition of the vertices
into classes exists with the clique number of class i below v[i].
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as K
from .graphs import Graph, GraphError


@dataclass(frozen=True)
class ArrowVector:
    """Multiset of clique targets with the derived threshold m and peak p.

    The canonical form drops entries equal to 1 (they never change the
    relation) and sorts ascending; m and p are invariant under that.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if any(a < 1 for a in self.entries):
            raise GraphError(f"clique targets must be >= 1: {self.entries}")

    @classmethod
    def of(cls, *entries: int) -> "ArrowVector":
        return cls(tuple(entries))

    @classmethod
    def parse(cls, text: str) -> "ArrowVector":
        parts = text.replace(",", " ").split()
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError:
            raise GraphError(f"clique targets must be integers: {text!r}") from None

    def canonical(self) -> "ArrowVector":
        return ArrowVector(tuple(sorted(a for a in self.entries if a >= 2)))

    @property
    def m(self) -> int:
        return sum(a - 1 for a in self.entries) + 1

    @property
    def p(self) -> int:
        return max(self.entries, default=1)

    def decremented_first(self) -> "ArrowVector":
        """Canonical vector with its smallest entry lowered by one (the form
        consumed by the generation step chains)."""
        c = self.canonical().entries
        if not c:
            raise GraphError("cannot decrement the empty vector")
        return ArrowVector((c[0] - 1,) + c[1:]).canonical()

    def __str__(self):
        return ", ".join(str(a) for a in self.entries)


def canonicalize(v) -> ArrowVector:
    return _as_vector(v).canonical()


def _as_vector(v) -> ArrowVector:
    if isinstance(v, ArrowVector):
        return v
    if isinstance(v, str):
        return ArrowVector.parse(v)
    return ArrowVector(tuple(v))


def arrows_adj(adj, entries) -> bool:
    """Low-level arrowing check on raw adjacency; entries already canonical
    (the kernel ``arrows``)."""
    return K.impl.arrows(adj, entries)


def clique_arrows(entries, k) -> bool:
    """True when every graph holding a K_k arrows the canonical
    ``entries``, that is, when sum(a_i - 1) + 1 <= k (always for the empty
    vector).  At one entry this is the definition: G -> (a) exactly when
    omega(G) >= a.  In general K_m with m = sum(a_i - 1) + 1 arrows the
    vector, since classes with fewer than a_i vertices cover at most
    m - 1, and a graph arrows whatever a subgraph of it arrows; a smaller
    K_k does not arrow it (give colour class i at most a_i - 1 of its
    vertices)."""
    return not entries or sum(a - 1 for a in entries) + 1 <= k


def arrows(g: Graph, v) -> bool:
    return arrows_adj(g.adj, canonicalize(v).entries)


def find_free_partition(g: Graph, v):
    """Witness for the negative case: disjoint covering classes whose clique
    numbers stay below the corresponding entries, or None when g arrows v.
    Classes are aligned with the entries as given (1-entries get empty
    classes)."""
    vec = _as_vector(v)
    if not vec.canonical().entries:
        return None  # the empty vector arrows everything
    limits = tuple(a - 1 for a in vec.entries)
    return K.impl.free_partition(g.adj, limits)
