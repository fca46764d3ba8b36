"""Canonical labeling and the isomorphism-deduplicated graph store.

The canonical form of a graph is the graph6 line of its canonically
relabeled copy: equal lines exactly for isomorphic graphs.  A GraphSet is a
set of those lines and persists as a sorted line file, so two runs that
compute the same family produce byte-identical artifacts regardless of
insertion order or worker split.  It keeps no graphs: iteration decodes
each line afresh and retains nothing, so a family costs its lines alone.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Iterable, Iterator

from . import _kernels as K
from .graphs import Graph, from_graph6, graph6_lines


def canonical_line(adj) -> str:
    """graph6 line of the canonically relabeled graph with neighbour masks
    ``adj`` (the kernel ``canonical_line``)."""
    return K.impl.canonical_line(adj)


def canonical_form(g: Graph) -> str:
    return canonical_line(g.adj)


def cone_count(line: str) -> int:
    """How many vertices of the graph of a canonical line are adjacent to
    all others (the kernel ``cone_count``: a canonical labeling lists them
    last)."""
    return K.impl.cone_count(line)


class GraphSet:
    """Deduplicated set of isomorphism classes keyed by canonical form.

    Members are canonical lines only.  Iteration decodes them in sorted
    order to canonically labeled graphs, one at a time, and keeps none."""

    def __init__(self):
        self._members: set[str] = set()

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Graph]:
        for line in self.lines():
            yield from_graph6(line)

    # ``g in s`` would otherwise fall back to __iter__ and compare labeled
    # graphs one by one; test canonical_form(g) in s.lines() instead
    __contains__ = None

    def insert(self, g: Graph) -> bool:
        """Insert an isomorphism class; returns True when it is new."""
        return self.insert_canonical(canonical_line(g.adj))

    def insert_canonical(self, line: str, g: Graph | None = None) -> bool:
        """Insert a canonical line (trusted path); returns True when it is
        new.  ``g`` is ignored: the set keeps lines only."""
        if line in self._members:
            return False
        self._members.add(line)
        return True

    def lines(self) -> list[str]:
        return sorted(self._members)

    def update(self, other: "GraphSet") -> None:
        self._members |= other._members

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> list[str]:
        """Write the sorted lines to ``path`` and return them."""
        lines = self.lines()
        with atomic_write(path, "ascii") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
        return lines

    @classmethod
    def load_trusted(cls, path) -> "GraphSet":
        """Load a file produced by save(); lines are taken as canonical."""
        out = cls()
        for line in graph6_lines(path):
            out.insert_canonical(line)
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


def format_kv(fields: dict) -> str:
    """``key = value`` lines, in order, for the fields that are not None."""
    return "".join(f"{key} = {value}\n" for key, value in fields.items() if value is not None)


def parse_kv(text: str) -> dict:
    """Fields of ``key = value`` lines as strings; blank lines and ``#``
    comments are skipped."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def write_manifest(path, fields: dict) -> None:
    with atomic_write(path, "utf-8") as fh:
        fh.write(format_kv(fields))


def read_manifest(path) -> dict:
    """A manifest's fields; one that is not UTF-8 reads as empty, which no
    reuse rule accepts, so its artifact is rebuilt."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_kv(fh.read())
    except UnicodeDecodeError:
        return {}
