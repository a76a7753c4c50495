"""
Isomorphism-free generation of C4-free (more generally K_{2,k+1}-free)
graphs, by edge count or by order.

Connected classes come from one level-synchronous edge augmentation from
K_1: level j holds one class per connected K_{2,k+1}-free graph with j
edges and at most max_n vertices. A connected graph with an edge has an
edge whose deletion leaves it connected once an isolated vertex is
dropped (a pendant edge, or an edge on a cycle), and the graph comes back
from that level-(j-1) parent by a pendant edge or an edge between present
vertices; so extending each parent in these two ways and deduplicating by
canonical form is complete. Only an edge between present vertices can
create a K_{2,k+1}, and such children are pruned before canonicalization.
Levels can be partitioned across worker processes; partial results merge
by canonical form.

Each class keeps, beside its graph, the automorphisms the canonizer proved
when it canonized that graph, and a parent is extended by one non-edge per
orbit of non-edges, and one pendant vertex per orbit of vertices, under
them: the first in order. The representatives do not change: a skipped
child is the image of an earlier child of the same parent under an
automorphism of the parent, so it has that child's canonical form, and the
scan of that parent's children dropped it as a repeat. The first child of
each class from each parent is still canonized, so the class keeps the
same representative for any subgroup of the automorphisms and any worker
count.

Every other class is a disjoint union of connected classes, one per
multiset of them, so unions are composed and never canonized. By edges the
pieces are the connected classes with 1..m edges and their sizes are edge
counts; by order they are the connected classes on at most n vertices, K_1
included, and their sizes are vertex counts. Streams come in the order of
the composer: multisets in a fixed order of the pieces (size, then
canonical form), the connected classes last.
"""

from __future__ import annotations

from itertools import islice
from operator import getitem
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, TypeVar

from .canon import Automorphism, canonical_form
from .graph import Graph, adding_edge_creates_k2kp1

MAX_EDGES = 16
MAX_ORDER = 10

Autos = Tuple[Automorphism, ...]
Level = Dict[bytes, Tuple[Graph, Autos]]  # canonical form -> (class, automorphisms proved on it)
_P = TypeVar("_P")


class CapExceeded(ValueError):
    """Requested size is beyond the desk-scale cap and no override was given."""


def _check_request(what: str, size: int, cap: int, k: int, workers: int, cap_override: bool) -> None:
    """Refuses a size, k or worker count below 1, then a size above cap
    unless cap_override; what names the stream in the cap message."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if workers < 1:
        raise ValueError("need workers >= 1")
    if size > cap and not cap_override:
        raise CapExceeded(f"{what} size {size} exceeds cap {cap}; pass cap_override (CLI: --force) to proceed")


def enumerate_c4free_by_edges(m: int, workers: int = 1, cap_override: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of C4-free graphs with m
    edges and no isolated vertices, in the deterministic order of the
    composer (see the module docstring)."""
    _check_request("by-edges", m, MAX_EDGES, 1, workers, cap_override)
    levels = islice(_levels(1, m + 1, workers), 1, m + 1)
    yield from _unions(_pieces(levels, lambda g: g.m), m)


def enumerate_c4free_by_order(n: int, workers: int = 1, cap_override: bool = False) -> Iterator[Graph]:
    """One representative per isomorphism class of C4-free graphs on exactly
    n vertices (isolated vertices permitted, as K_1 components laid out
    last), in the deterministic order of the composer (see the module
    docstring); the edgeless graph comes first."""
    yield from enumerate_kfree_by_order(n, 1, workers, cap_override)


def enumerate_kfree_by_order(
    n: int, k: int, workers: int = 1, cap_override: bool = False
) -> Iterator[Graph]:
    """One representative per isomorphism class of K_{2,k+1}-free graphs on
    exactly n vertices, in the order of enumerate_c4free_by_order."""
    _check_request("by-order", n, MAX_ORDER, k, workers, cap_override)
    yield from _unions(_pieces(_levels(k, n, workers), lambda g: g.n), n)


def _pieces(levels: Iterable[Level], size: Callable[[Graph], int]) -> List[Tuple[int, Graph]]:
    """(size, class) for every class of the levels, by size, then by
    canonical form."""
    keyed = sorted(((size(g), key), g) for level in levels for key, (g, _) in level.items())
    return [(s, g) for (s, _), g in keyed]


def _unions(pieces: List[Tuple[int, Graph]], total: int) -> Iterator[Graph]:
    """One disjoint union per multiset of pieces whose sizes sum to total.
    pieces are (size, graph) pairs by ascending size, in a fixed order; a
    multiset takes its members in that order, and its union lays them out
    in reverse, so the largest comes first and isolated vertices last."""

    def grow(start: int, rest: int, chosen: Tuple[Graph, ...]) -> Iterator[Graph]:
        if not rest:
            rows: Tuple[int, ...] = ()
            for g in reversed(chosen):
                shift = len(rows)
                rows += tuple(r << shift for r in g.rows)
            yield Graph._unchecked(len(rows), rows)
            return
        for i in range(start, len(pieces)):
            size, g = pieces[i]
            if size > rest:
                break
            yield from grow(i, rest - size, chosen + (g,))

    yield from grow(0, total, ())


def _levels(k: int, max_n: int, workers: int) -> Iterator[Level]:
    """Level j = 0, 1, ...: the connected K_{2,k+1}-free classes with j
    edges and at most max_n vertices, keyed by canonical form; stops after
    the last nonempty level."""
    g0 = Graph.empty(1)
    level: Level = {canonical_form(g0): (g0, ())}
    while level:
        yield level
        level = _merge_levels(level, k, max_n, workers)


def _orbit_firsts(points: Sequence[_P], autos: Autos, image: Callable[[Automorphism, _P], _P]) -> List[_P]:
    """The first of points in each of their orbits under the group that
    autos generate; image(p, x) is x moved by p, and points must be closed
    under it."""
    if not autos:
        return list(points)
    seen = set()
    out = []
    for x in points:
        if x in seen:
            continue
        out.append(x)
        seen.add(x)
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for p in autos:
                z = image(p, y)
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
    return out


def _pair_image(p: Automorphism, pair: Tuple[int, int]) -> Tuple[int, int]:
    a, b = p[pair[0]], p[pair[1]]
    return (a, b) if a < b else (b, a)


def _extend_fixed_order(g: Graph, k: int, autos: Autos) -> List[Graph]:
    """One-edge extensions between present vertices that stay K_{2,k+1}-free,
    one per orbit of non-edges under autos (automorphisms of g)."""
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    return [
        g.add_edge(u, v)
        for u, v in _orbit_firsts(non_edges, autos, _pair_image)
        if not adding_edge_creates_k2kp1(g, u, v, k)
    ]


def _extend_by_edges(g: Graph, max_n: int, autos: Autos) -> List[Graph]:
    """One-edge extensions that add a vertex, within max_n vertices: a
    pendant edge to a fresh vertex, which cannot create a K_{2,k+1}; one
    per orbit of vertices under autos (automorphisms of g)."""
    if g.n + 1 > max_n:
        return []
    grown = Graph._unchecked(g.n + 1, g.rows + (0,))
    return [grown.add_edge(u, g.n) for u in _orbit_firsts(range(g.n), autos, getitem)]


def _children_chunk(args: Tuple[List[Tuple[Graph, Autos]], int, int]) -> Dict[bytes, Tuple[int, Graph, Autos]]:
    """The children of the parents, each class once, keyed by canonical
    form, with the index of the first parent that gives it and the
    automorphisms proved on that child."""
    parents, k, max_n = args
    children: Dict[bytes, Tuple[int, Graph, Autos]] = {}
    for i, (g, autos) in enumerate(parents):
        for child in _extend_fixed_order(g, k, autos) + _extend_by_edges(g, max_n, autos):
            found: List[Automorphism] = []
            key = canonical_form(child, found)
            if key not in children:
                children[key] = (i, child, tuple(found))
    return children


def _merge_levels(parents: Level, k: int, max_n: int, workers: int) -> Level:
    plist = [parents[key] for key in sorted(parents)]
    if workers <= 1 or len(plist) < 4 * workers:
        workers = 1
        parts = [_children_chunk((plist, k, max_n))]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # parents dealt round-robin, which balances the workers better than
        # contiguous chunks of the sorted parents
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_children_chunk, [(plist[w::workers], k, max_n) for w in range(workers)]))
    # each class keeps the child of its lowest-index parent: the same
    # representatives as the one-worker scan, whatever the worker count
    first: Dict[bytes, Tuple[int, Graph, Autos]] = {}
    for w, part in enumerate(parts):
        for key, (i, child, autos) in part.items():
            i = w + i * workers
            if key not in first or i < first[key][0]:
                first[key] = (i, child, autos)
    return {key: (child, autos) for key, (_, child, autos) in first.items()}
