"""Canonical labeling and the isomorphism-deduplicated graph store.

The canonical form of a graph is the graph6 line of its canonically
relabeled copy: equal lines exactly for isomorphic graphs.  GraphSets key
their members by that line and persist as sorted line files, so two runs
that compute the same family produce byte-identical artifacts regardless of
insertion order or worker split.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Iterable, Iterator

from . import _kernels as K
from .graphs import Graph, adj_to_graph6, from_graph6, graph6_lines


def canonical_line(adj) -> str:
    """graph6 line of the canonically relabeled graph with neighbour masks
    ``adj``, encoded straight from ``adj`` in canonical order."""
    return adj_to_graph6(len(adj), adj, K.impl.canonical_perm(adj))


def canonical_graph(g: Graph) -> Graph:
    return from_graph6(canonical_line(g.adj))


def canonical_form(g: Graph) -> str:
    return canonical_line(g.adj)


class GraphSet:
    """Deduplicated set of isomorphism classes keyed by canonical form.

    Members are canonical lines; a line is decoded to its canonically
    labeled graph only when graphs() or iteration first asks for it."""

    def __init__(self):
        self._members: dict[str, Graph | None] = {}
        self.attempts = 0

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, g: Graph) -> bool:
        return canonical_line(g.adj) in self._members

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs())

    def insert(self, g: Graph) -> bool:
        """Insert an isomorphism class; returns True when it is new."""
        return self.insert_canonical(canonical_line(g.adj))

    def insert_canonical(self, line: str, g: Graph | None = None) -> bool:
        """Insert a canonical line (trusted path); ``g``, when given, is its
        decoded graph."""
        self.attempts += 1
        if line in self._members:
            return False
        self._members[line] = g
        return True

    def lines(self) -> list[str]:
        return sorted(self._members)

    def graphs(self) -> list[Graph]:
        members = self._members
        out = []
        for line in self.lines():
            g = members[line]
            if g is None:
                g = members[line] = from_graph6(line)
            out.append(g)
        return out

    def update(self, other: "GraphSet") -> None:
        for line, g in other._members.items():
            self.attempts += 1
            if line not in self._members:
                self._members[line] = g

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        with atomic_write(path, "ascii") as fh:
            for line in self.lines():
                fh.write(line)
                fh.write("\n")

    @classmethod
    def load(cls, path) -> "GraphSet":
        """Load any graph6 file, re-canonicalizing every line."""
        out = cls()
        for line in graph6_lines(path):
            out.insert(from_graph6(line))
        return out

    @classmethod
    def load_trusted(cls, path) -> "GraphSet":
        """Load a file produced by save(); lines are taken as canonical."""
        out = cls()
        for line in graph6_lines(path):
            out.insert_canonical(line)
        return out


def merge(a: GraphSet, b: GraphSet) -> GraphSet:
    """Union of isomorphism classes (commutative, associative, idempotent)."""
    out = GraphSet()
    out.update(a)
    out.update(b)
    return out


def graph_set_of(graphs: Iterable[Graph]) -> GraphSet:
    out = GraphSet()
    for g in graphs:
        out.insert(g)
    return out


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_write(path, encoding: str):
    """Text handle on a sibling temporary file that replaces ``path`` once
    the block completes.  If the block raises, the temporary file is
    removed and ``path`` keeps its old content."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(path, fields: dict) -> None:
    with atomic_write(path, "utf-8") as fh:
        for key, value in fields.items():
            fh.write(f"{key} = {value}\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
