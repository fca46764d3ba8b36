"""Vertex arrowing, maximal K_q-free family generation, and vertex Folkman
number bound calculus on bitset graphs of at most 64 vertices."""

from ._kernels import backend_name
from .arrowing import ArrowVector, arrows, find_free_partition
from .canon import GraphSet, canonical_form
from .cliques import (
    clique_number,
    has_clique,
    independence_number,
    is_plus_kt,
    maximal_kt_free_subsets,
)
from .graphs import Graph, from_graph6, join, to_graph6

__version__ = "0.1.0"

__all__ = [
    "ArrowVector",
    "Graph",
    "GraphSet",
    "arrows",
    "backend_name",
    "canonical_form",
    "clique_number",
    "find_free_partition",
    "from_graph6",
    "has_clique",
    "independence_number",
    "is_plus_kt",
    "join",
    "maximal_kt_free_subsets",
    "to_graph6",
]
