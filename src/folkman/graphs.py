"""Immutable bitset graphs on at most 64 vertices, with graph6 I/O.

Vertices are 0..n-1 and every vertex subset is an int bitmask, so set algebra
is plain integer arithmetic.  Graphs are immutable values, which makes
sharing across worker processes safe.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_VERTICES = 64


class GraphError(Exception):
    pass


class CapacityError(GraphError):
    """More than 64 vertices requested."""


class Graph6ParseError(GraphError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbour bitmask of v."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        if not 0 <= n <= MAX_VERTICES:
            raise CapacityError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = tuple(adj)
        if len(adj) != n:
            raise GraphError(f"adjacency length {len(adj)} != n = {n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if not 0 <= row <= full:
                raise GraphError(f"neighbour bits of {v} outside 0..n-1")
            if (row >> v) & 1:
                raise GraphError(f"loop at vertex {v}")
            for u in bits_of(row):
                if not (adj[u] >> v) & 1:
                    raise GraphError(f"asymmetric edge [{u}, {v}]")
        self.n = n
        self.adj = adj

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, adj: tuple) -> "Graph":
        """Graph on a tuple of n masks already known to be symmetric and
        loop-free, without the checks of ``__init__``."""
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise GraphError("cycle needs at least 3 vertices")
        return cls(
            n, tuple((1 << ((v + 1) % n)) | (1 << ((v - 1) % n)) for v in range(n))
        )

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph({self.n}, edges={sorted(self.edges())})"

    # -- queries -----------------------------------------------------------

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits_of(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    # -- construction operators --------------------------------------------

    def complement(self) -> "Graph":
        return Graph._trusted(self.n, complement_adj(self.adj))

    def relabel(self, perm) -> "Graph":
        """New graph with position i taking the role of old vertex perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError(f"{perm!r} is not a permutation of 0..{self.n - 1}")
        return from_graph6(adj_to_graph6(self.n, self.adj, perm))


def complement_adj(adj) -> tuple:
    full = (1 << len(adj)) - 1
    return tuple((full ^ row) & ~(1 << v) for v, row in enumerate(adj))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross edges; g1 keeps its indices, g2 is
    shifted up by g1.n."""
    n = g1.n + g2.n
    if n > MAX_VERTICES:
        raise CapacityError(f"join would need {n} vertices")
    m1 = g1.full_mask()
    m2 = g2.full_mask() << g1.n
    adj = [row | m2 for row in g1.adj]
    adj += [(row << g1.n) | m1 for row in g2.adj]
    return Graph._trusted(n, tuple(adj))


def attach(adj, masks) -> tuple:
    """Adjacency of adj plus len(masks) new pairwise non-adjacent vertices,
    the j-th one adjacent exactly to masks[j]."""
    n = len(adj) + len(masks)
    if n > MAX_VERTICES:
        raise CapacityError(f"extension would need {n} vertices")
    out = list(adj)
    for mask in masks:
        bj = 1 << len(out)
        out.append(mask)
        while mask:
            b = mask & -mask
            mask ^= b
            out[b.bit_length() - 1] |= bj
    return tuple(out)


# -- graph6 ----------------------------------------------------------------


def to_graph6(g: Graph) -> str:
    """Standard graph6 line (without trailing newline)."""
    return adj_to_graph6(g.n, g.adj)


def adj_to_graph6(n: int, adj, perm=None) -> str:
    """graph6 line of the graph with neighbour masks ``adj``; with ``perm``,
    of its relabeling in which position i takes the role of old vertex
    perm[i] (as in Graph.relabel), read straight from ``adj``."""
    order = range(n) if perm is None else perm
    if n <= 62:
        head = [chr(63 + n)]
    else:
        head = ["~", chr(63 + ((n >> 12) & 63)), chr(63 + ((n >> 6) & 63)), chr(63 + (n & 63))]
    out = head
    acc = 0
    nbits = 0
    for j in range(1, n):
        aj = adj[order[j]]
        for p in order[:j]:
            acc = (acc << 1) | ((aj >> p) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def from_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6ParseError("empty graph6 line", 0)

    def val(i):
        c = ord(s[i])
        if not 63 <= c <= 126:
            raise Graph6ParseError(f"byte {c!r} outside graph6 range", i)
        return c - 63

    if s[0] == "~":
        if len(s) < 4:
            raise Graph6ParseError("truncated long-form vertex count", len(s))
        if len(s) >= 2 and s[1] == "~":
            raise Graph6ParseError("vertex count beyond 64 unsupported", 1)
        n = (val(1) << 12) | (val(2) << 6) | val(3)
        body = 4
    else:
        n = val(0)
        body = 1
    if n > MAX_VERTICES:
        raise Graph6ParseError(f"vertex count {n} exceeds {MAX_VERTICES}", 0)

    nedgebits = n * (n - 1) // 2
    need = (nedgebits + 5) // 6
    if len(s) - body != need:
        raise Graph6ParseError(
            f"expected {need} edge bytes for n = {n}, got {len(s) - body}",
            min(len(s), body + need),
        )
    bits = 0
    for idx in range(body, len(s)):
        bits = (bits << 6) | val(idx)
    # the padding fills the low end of the last byte
    if bits & ((1 << (6 * need - nedgebits)) - 1):
        raise Graph6ParseError("nonzero padding bits", len(s) - 1)
    # edge bits run from the top in column-major upper-triangle order, so
    # in the reversed stream column j is the j bits from j(j-1)/2 up, bit i
    # standing for the edge ij
    stream = int(format(bits, f"0{6 * need}b")[::-1], 2)
    adj = [0] * n
    for j in range(1, n):
        col = (stream >> (j * (j - 1) // 2)) & ((1 << j) - 1)
        adj[j] = col
        bj = 1 << j
        while col:
            b = col & -col
            col ^= b
            adj[b.bit_length() - 1] |= bj
    # symmetric and loop-free by construction: skip Graph's checks
    return Graph._trusted(n, tuple(adj))


def graph6_lines(path) -> Iterator[str]:
    """The graph6 lines of a file, stripped, skipping blank and ``#`` lines."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line
