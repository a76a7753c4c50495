"""
Isomorphism-free generation of C4-free (more generally K_{2,k+1}-free)
graphs, by edge count or by order.

Generation is level-synchronous edge augmentation: every class with m
edges arises from some class with m-1 edges (delete an edge, drop isolated
vertices), so extending each level-(m-1) representative in all ways and
deduplicating by canonical form yields exactly one representative per
isomorphism class. Children that would create a forbidden K_{2,k+1} are
pruned before canonicalization, which keeps the tree small. Levels can be
partitioned across worker processes; partial results merge by canonical
form.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    level = {canonical_form(Graph.from_edges(2, [(0, 1)])): Graph.from_edges(2, [(0, 1)])}
    for _ in range(m - 1):
        level = _merge_levels(level, 1, True, workers)
    for key in sorted(level):
        yield level[key]


def enumerate_c4free_by_order(n: int, workers: int = 1, cap_override: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of C4-free graphs on exactly
    n vertices (isolated vertices permitted)."""
    yield from enumerate_kfree_by_order(n, 1, workers, cap_override)


def enumerate_kfree_by_order(
    n: int, k: int, workers: int = 1, cap_override: bool = False
) -> Iterator[Graph]:
    """One representative per isomorphism class of K_{2,k+1}-free graphs on
    exactly n vertices."""
    EnumSpec("by-order", n, k, cap_override).validate()
    g0 = Graph.empty(n)
    level = {canonical_form(g0): g0}
    while level:
        for key in sorted(level):
            yield level[key]
        level = _merge_levels(level, k, False, workers)


def _extend_by_edges(g: Graph, k: int) -> List[Graph]:
    """All one-edge extensions keeping min degree >= 1: a new edge between
    existing vertices, a pendant edge to a fresh vertex, or a disjoint edge."""
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v) and not adding_edge_creates_k2kp1(g, u, v, k):
                out.append(g.add_edge(u, v))
    grown = Graph(g.n + 1, g.rows + (0,))
    for u in range(g.n):
        out.append(grown.add_edge(u, g.n))
    out.append(Graph(g.n + 2, g.rows + (0, 0)).add_edge(g.n, g.n + 1))
    return out


def _extend_fixed_order(g: Graph, k: int) -> List[Graph]:
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v) and not adding_edge_creates_k2kp1(g, u, v, k):
                out.append(g.add_edge(u, v))
    return out


def _children_chunk(args: Tuple[List[Graph], int, bool]) -> Dict[bytes, Graph]:
    parents, k, by_edges = args
    extend = _extend_by_edges if by_edges else _extend_fixed_order
    children: Dict[bytes, Graph] = {}
    for g in parents:
        for child in extend(g, k):
            key = canonical_form(child)
            if key not in children:
                children[key] = child
    return children


def _merge_levels(
    parents: Dict[bytes, Graph], k: int, by_edges: bool, workers: int
) -> Dict[bytes, Graph]:
    plist = [parents[key] for key in sorted(parents)]
    if workers <= 1 or len(plist) < 4 * workers:
        return _children_chunk((plist, k, by_edges))
    # contiguous chunks merged in order, first occurrence kept: the same
    # representatives as the one-worker scan, whatever the worker count
    size = -(-len(plist) // workers)
    chunks = [plist[i : i + size] for i in range(0, len(plist), size)]
    merged: Dict[bytes, Graph] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_children_chunk, [(c, k, by_edges) for c in chunks]):
            for key, child in part.items():
                merged.setdefault(key, child)
    return merged
