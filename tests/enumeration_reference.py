"""
Reference level builder for the tests: the edge augmentation of
`c4free.enumeration` without the canonical-parent test. Every child of
every parent is canonized, and each class keeps the child of the first
parent, in level order, that gives it; a class that two parents give is
simply a repeat.

Level j holds one class per connected K_{2,k+1}-free graph with j edges
and at most max_n vertices. It is complete by the argument the package's
builder also rests on: a connected graph with an edge has a deletable
edge (a pendant edge, or an edge on a cycle), and its deletion leaves a
connected graph of level j-1 once an isolated vertex is dropped. So
extending each class of level j-1 by every non-edge and every pendant
edge, and keeping one child per canonical form, gives every class of
level j. The package's builder must give the same classes; its
representatives may differ.

It runs in one process, extends every parent by every non-edge and every
pendant vertex, and takes no automorphisms, so it shares with the package
only `Graph`, the K_{2,k+1} test and `canonical_form`.

`reference_extend_fixed_order` and `reference_extend_by_edges` are the
package's extensions of one parent without the parent-side prefilter: one
child per orbit of non-edges, or of vertices, under the automorphisms
given, whatever its added edge's degrees.
"""

from __future__ import annotations

from operator import getitem
from typing import Dict, Iterator, List, Tuple

from c4free.canon import canonical_form
from c4free.enumeration import Autos, Edge, _orbit_firsts, _pair_image
from c4free.graph import Graph, adding_edge_creates_k2kp1


def reference_levels(k: int, max_n: int) -> Iterator[Dict[bytes, Graph]]:
    """Level j = 0, 1, ...: canonical form -> class, until the first empty
    level."""
    level = {canonical_form(Graph.empty(1)): Graph.empty(1)}
    while level:
        yield level
        children: Dict[bytes, Graph] = {}
        for g in level.values():
            for child in _children(g, k, max_n):
                children.setdefault(canonical_form(child), child)
        level = children


def _children(g: Graph, k: int, max_n: int) -> Iterator[Graph]:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v) and not adding_edge_creates_k2kp1(g, u, v, k):
                yield g.add_edge(u, v)
    if g.n < max_n:
        grown = Graph(g.n + 1, g.rows + (0,))
        for u in range(g.n):
            yield grown.add_edge(u, g.n)


def reference_extend_fixed_order(g: Graph, k: int, autos: Autos) -> List[Tuple[Graph, Edge]]:
    """Every K_{2,k+1}-free one-edge extension between present vertices,
    one per orbit of non-edges under autos, each with its added edge."""
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    return [
        (g.add_edge(u, v), (u, v))
        for u, v in _orbit_firsts(non_edges, autos, _pair_image)
        if not adding_edge_creates_k2kp1(g, u, v, k)
    ]


def reference_extend_by_edges(g: Graph, max_n: int, autos: Autos) -> List[Tuple[Graph, Edge]]:
    """Every pendant edge to a fresh vertex, within max_n vertices, one per
    orbit of vertices under autos, each with its added edge."""
    if g.n + 1 > max_n:
        return []
    grown = Graph._unchecked(g.n + 1, g.rows + (0,))
    return [(grown.add_edge(u, g.n), (u, g.n)) for u in _orbit_firsts(range(g.n), autos, getitem)]
