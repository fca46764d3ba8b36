"""Immutable bitset graphs on at most 64 vertices, with graph6 I/O.

Vertices are 0..n-1 and every vertex subset is an int bitmask, so set algebra
is plain integer arithmetic.  Graphs are immutable values, which makes
sharing across worker processes safe.
"""

from __future__ import annotations

import binascii
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

# graph6 writes a bit stream in 6-bit groups as chr(63 + group) where base64
# writes alphabet[group], so binascii packs and unpacks it through these
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _B64)
_BLANKS = " \t\n\r\v\f"  # stripped from lines; a non-ASCII byte is reported


def edge_code(adj, order) -> int:
    """graph6 edge bits of ``adj`` relabeled so that position i takes the
    role of vertex order[i] (the upper triangle, column by column), as one
    integer whose first bit is the most significant: codes of one graph
    compare as their bit streams do."""
    code = 0
    for j in range(1, len(order)):
        aj = adj[order[j]]
        col = 0
        for p in order[:j]:
            col = col << 1 | aj >> p & 1
        code = code << j | col
    return code


def _unpack(text: str) -> int:
    # the 6 * len(text) bits of graph6 characters already checked for range
    pad = -len(text) % 4
    data = binascii.a2b_base64(text.encode().translate(_FROM_G6) + b"A" * pad)
    return int.from_bytes(data, "big") >> 6 * pad


def to_graph6(g: Graph) -> str:
    """Standard graph6 line (without trailing newline)."""
    return adj_to_graph6(g.n, g.adj)


def adj_to_graph6(n: int, adj, perm=None) -> str:
    """graph6 line of the graph with neighbour masks ``adj``; with ``perm``,
    of its relabeling in which position i takes the role of old vertex
    perm[i] (as in Graph.relabel), read straight from ``adj``."""
    code = edge_code(adj, range(n) if perm is None else perm)
    # n in 6 bits (18 after "~"), the edge bits, zeros to whole 24-bit
    # quanta; the cut to one character per group drops b2a_base64's newline
    ebits = n * (n - 1) // 2
    nbits = ebits + (6 if n <= 62 else 18)
    pad = -nbits % 24
    data = ((n << ebits | code) << pad).to_bytes((nbits + pad) >> 3, "big")
    text = binascii.b2a_base64(data)[: (nbits + 5) // 6].translate(_TO_G6).decode()
    return text if n <= 62 else "~" + text


def unpack_graph6(line: str) -> tuple[int, int]:
    """The vertex count n of a graph6 line and its edge bits, as
    ``edge_code`` gives them for the graph in the line's own labeling.
    Raises Graph6ParseError, with the byte offset, on a malformed line."""
    s = line.strip(_BLANKS)
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6ParseError("empty graph6 line", 0)
    # a2b_base64 skips bytes outside its alphabet, so the range is checked
    # here; a bad byte is reported in the header's turn or the body's
    bad = None
    if min(s) < "?" or max(s) > "~":
        bad = next(i for i, c in enumerate(s) if not "?" <= c <= "~")
    if s[0] == "~":
        if len(s) < 4:
            raise Graph6ParseError("truncated long-form vertex count", len(s))
        if s[1] == "~":
            raise Graph6ParseError("vertex count beyond 64 unsupported", 1)
        body = 4
    else:
        body = 1
    if bad is not None and bad < body:
        raise Graph6ParseError(f"byte {ord(s[bad])!r} outside graph6 range", bad)
    n = _unpack(s[1:4]) if body == 4 else ord(s[0]) - 63
    if n > MAX_VERTICES:
        raise Graph6ParseError(f"vertex count {n} exceeds {MAX_VERTICES}", 0)

    nedgebits = n * (n - 1) // 2
    need = (nedgebits + 5) // 6
    if len(s) - body != need:
        raise Graph6ParseError(
            f"expected {need} edge bytes for n = {n}, got {len(s) - body}",
            min(len(s), body + need),
        )
    if bad is not None:
        raise Graph6ParseError(f"byte {ord(s[bad])!r} outside graph6 range", bad)
    bits = _unpack(s[body:])
    # the padding fills the low end of the last byte
    pad = 6 * need - nedgebits
    if bits & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bits", len(s) - 1)
    return n, bits >> pad


def from_graph6(line: str) -> Graph:
    """The graph of a graph6 line, decoded by the kernel ``graph6_adj`` of
    the backend in use; a malformed line raises Graph6ParseError."""
    adj = K.impl.graph6_adj(line)
    # symmetric and loop-free by construction: skip Graph's checks
    return Graph._trusted(len(adj), adj)


def graph6_lines(path) -> Iterator[str]:
    """The graph6 lines of a file, stripped, skipping blank and ``#`` lines.
    Bytes read as Latin-1, so ``unpack_graph6`` reports any non-ASCII one."""
    with open(path, "r", encoding="latin-1") as fh:
        for line in fh:
            line = line.strip(_BLANKS)
            if line and not line.startswith("#"):
                yield line


# The kernels import this module's codec, so they are imported last: every
# name above exists whichever of the two modules is imported first.
from . import _kernels as K  # noqa: E402
