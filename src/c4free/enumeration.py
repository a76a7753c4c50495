"""
Isomorphism-free generation of C4-free (more generally K_{2,k+1}-free)
graphs, by edge count or by order.

One level-synchronous edge augmentation from the empty graph on 0
vertices: level j holds one class per K_{2,k+1}-free graph with j edges,
no isolated vertices and at most max_n vertices. Deleting an edge and
dropping isolated vertices leaves a level-(j-1) parent, and the graph
comes back from it by an edge between present vertices, a pendant edge or
a disjoint edge; so extending each parent in these ways and deduplicating
by canonical form is complete. Only the first move can create a
K_{2,k+1}, and such children are pruned before canonicalization. By edges
is level m; by order is every level at max_n = n, padded with isolated
vertices, so ordered by edge count, then by the canonical form of the
graph without its isolated vertices. Levels can be partitioned across
worker processes; partial results merge by canonical form.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Tuple

from .canon import canonical_form
from .graph import Graph, adding_edge_creates_k2kp1

MAX_EDGES = 16
MAX_ORDER = 10


class CapExceeded(ValueError):
    """Requested size is beyond the desk-scale cap and no override was given."""


@dataclass(frozen=True)
class EnumSpec:
    mode: str  # "by-edges" or "by-order"
    size: int
    k: int = 1  # forbid K_{2,k+1}; k=1 is C4-free
    cap_override: bool = False

    def validate(self) -> None:
        if self.mode not in ("by-edges", "by-order"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.cap_override:
            cap = MAX_EDGES if self.mode == "by-edges" else MAX_ORDER
            if self.size > cap:
                raise CapExceeded(
                    f"{self.mode} size {self.size} exceeds cap {cap}; "
                    "pass cap_override (CLI: --force) to proceed"
                )


def enumerate_c4free_by_edges(m: int, workers: int = 1, cap_override: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of C4-free graphs with m
    edges and no isolated vertices, in deterministic (canonical-form) order."""
    EnumSpec("by-edges", m, 1, cap_override).validate()
    level = next(islice(_levels(1, 2 * m, workers), m, None))
    for key in sorted(level):
        yield level[key]


def enumerate_c4free_by_order(n: int, workers: int = 1, cap_override: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of C4-free graphs on exactly
    n vertices (isolated vertices permitted), ordered by edge count, then by
    the canonical form of the graph without its isolated vertices."""
    yield from enumerate_kfree_by_order(n, 1, workers, cap_override)


def enumerate_kfree_by_order(
    n: int, k: int, workers: int = 1, cap_override: bool = False
) -> Iterator[Graph]:
    """One representative per isomorphism class of K_{2,k+1}-free graphs on
    exactly n vertices, in the order of enumerate_c4free_by_order."""
    EnumSpec("by-order", n, k, cap_override).validate()
    for level in _levels(k, n, workers):
        for key in sorted(level):
            g = level[key]
            yield Graph(n, g.rows + (0,) * (n - g.n))


def _levels(k: int, max_n: int, workers: int) -> Iterator[Dict[bytes, Graph]]:
    """Level j = 0, 1, ...: the K_{2,k+1}-free classes with j edges, no
    isolated vertices and at most max_n vertices, keyed by canonical form;
    stops after the last nonempty level."""
    g0 = Graph.empty(0)
    level = {canonical_form(g0): g0}
    while level:
        yield level
        level = _merge_levels(level, k, max_n, workers)


def _extend_fixed_order(g: Graph, k: int) -> List[Graph]:
    """One-edge extensions between present vertices that stay K_{2,k+1}-free."""
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v) and not adding_edge_creates_k2kp1(g, u, v, k):
                out.append(g.add_edge(u, v))
    return out


def _extend_by_edges(g: Graph, max_n: int) -> List[Graph]:
    """One-edge extensions that add vertices, within max_n vertices: a
    pendant edge to a fresh vertex, or a disjoint edge. Neither can create
    a K_{2,k+1}."""
    out = []
    if g.n + 1 <= max_n:
        grown = Graph(g.n + 1, g.rows + (0,))
        for u in range(g.n):
            out.append(grown.add_edge(u, g.n))
    if g.n + 2 <= max_n:
        out.append(Graph(g.n + 2, g.rows + (0, 0)).add_edge(g.n, g.n + 1))
    return out


def _children_chunk(args: Tuple[List[Graph], int, int]) -> Dict[bytes, Graph]:
    parents, k, max_n = args
    children: Dict[bytes, Graph] = {}
    for g in parents:
        for child in _extend_fixed_order(g, k) + _extend_by_edges(g, max_n):
            key = canonical_form(child)
            if key not in children:
                children[key] = child
    return children


def _merge_levels(parents: Dict[bytes, Graph], k: int, max_n: int, workers: int) -> Dict[bytes, Graph]:
    plist = [parents[key] for key in sorted(parents)]
    if workers <= 1 or len(plist) < 4 * workers:
        return _children_chunk((plist, k, max_n))
    # contiguous chunks merged in order, first occurrence kept: the same
    # representatives as the one-worker scan, whatever the worker count
    size = -(-len(plist) // workers)
    chunks = [plist[i : i + size] for i in range(0, len(plist), size)]
    merged: Dict[bytes, Graph] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_children_chunk, [(c, k, max_n) for c in chunks]):
            for key, child in part.items():
                merged.setdefault(key, child)
    return merged
