"""
Isomorphism-free generation of C4-free (more generally K_{2,k+1}-free)
graphs, by edge count or by order.

Connected classes come from one edge augmentation from K_1, walked depth
first as a tree. A node is a connected K_{2,k+1}-free class with its
canonical form and the automorphisms the canonizer proved on it, which
live only while the node is on the walk's stack. A parent is extended by
an edge between present vertices, pruned first if it creates a K_{2,k+1},
and by a pendant edge to a fresh vertex; one non-edge per orbit of
non-edges, and one vertex per orbit of vertices, under its automorphisms.

Each class is kept from exactly one parent, by B. D. McKay's
canonical-parent test ("Isomorph-free exhaustive generation", J.
Algorithms 26 (1998) 306-324). The deletable edges of a connected graph
are its pendant edges and the edges on a cycle: deleting one, and an
endpoint it leaves isolated, leaves a connected graph with one edge
fewer. The canonical edge of a graph is, among its deletable edges of
largest invariant (see _tied_edges), the one whose pair of canonical
labels is least; it is defined up to an automorphism, so the graph minus
its canonical edge is one class, its canonical parent. A child, parent
plus f, is kept if and only if its canonical parent is that parent:

- if a deletable edge of the parent, disjoint from f, has a larger
  degree pair than f has in the child, it is never built: that edge keeps
  its degrees and stays deletable in the child (see _beaten_in);
- if a deletable edge has a larger invariant than f, it is dropped
  before any canonical form is computed;
- otherwise it is canonized, and kept if f is the only deletable edge of
  that invariant, or is the canonical edge, or lies in the canonical
  edge's orbit under the automorphisms proved on the child;
- failing those, child minus its canonical edge is canonized and compared
  with the parent's form. This last test needs no automorphism, so it
  holds when the canonizer proves only a subgroup of the group.

This is complete: a class's canonical parent has one edge fewer, and
the extension of that parent's representative by the image of the
canonical edge, or by an edge in its orbit under the parent's
automorphisms, is a child in the class whose added edge plays the
canonical edge's part, and is kept. A class has one canonical parent, so
no other parent keeps it; within one parent its repeats, children in one
orbit of the full group that the proved subgroup did not join, are
dropped by form. So the walk meets each class once, a class kept from
two parents raises when the pieces are sorted, and a class's
representative is the first child of its canonical parent's
representative in it, whatever the worker count: more workers share the
subtrees below a breadth-first start through one pool (see _classes).

Every other class is a disjoint union of connected classes, one per
multiset of them, so unions are composed and never canonized. By edges the
pieces are the connected classes with 1..m edges and their sizes are edge
counts; by order they are the connected classes on at most n vertices, K_1
included, and their sizes are vertex counts. Streams come in the order of
the composer: multisets in a fixed order of the pieces (size, then
canonical form), the connected classes last. On request a stream hands
each union over with its pieces, so the verify folds solve the pieces.
"""

from __future__ import annotations

from operator import getitem
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar

from .canon import Automorphism, canonical_form
from .graph import Graph, _bits, adding_edge_creates_k2kp1

MAX_EDGES = 16
MAX_ORDER = 10

Autos = Tuple[Automorphism, ...]
Edge = Tuple[int, int]  # (u, v) with u < v
Node = Tuple[bytes, Graph, Autos]  # canonical form, class, automorphisms proved on it
Beaten = Callable[[int, int, int], bool]  # see _beaten_in
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


def enumerate_c4free_by_edges(
    m: int, workers: int = 1, cap_override: bool = False, *, with_pieces: bool = False
) -> Iterator:
    """One representative per isomorphism class of C4-free graphs with m
    edges and no isolated vertices, in the deterministic order of the
    composer (see the module docstring). With with_pieces, each item is the
    graph and its connected pieces in layout order (see _unions)."""
    _check_request("by-edges", m, MAX_EDGES, 1, workers, cap_override)
    yield from _unions(_pieces(_classes(1, m + 1, m, workers)[1:], lambda g: g.m), m, with_pieces)  # K_1 left out


def enumerate_c4free_by_order(
    n: int, workers: int = 1, cap_override: bool = False, *, with_pieces: bool = False
) -> Iterator:
    """One representative per isomorphism class of C4-free graphs on exactly
    n vertices (isolated vertices permitted, as K_1 components laid out
    last), in the deterministic order of the composer (see the module
    docstring); the edgeless graph comes first."""
    yield from enumerate_kfree_by_order(n, 1, workers, cap_override, with_pieces=with_pieces)


def enumerate_kfree_by_order(
    n: int, k: int, workers: int = 1, cap_override: bool = False, *, with_pieces: bool = False
) -> Iterator:
    """One representative per isomorphism class of K_{2,k+1}-free graphs on
    exactly n vertices, in the order of enumerate_c4free_by_order."""
    _check_request("by-order", n, MAX_ORDER, k, workers, cap_override)
    yield from _unions(_pieces(_classes(k, n, n * (n - 1) // 2, workers), lambda g: g.n), n, with_pieces)


def _pieces(classes: list, size: Callable[[Graph], int]) -> List[Tuple[int, Graph]]:
    """classes, (canonical form, class) pairs, made (size, class) in place
    and sorted by size, then by canonical form; a form met twice raises."""
    classes.sort(key=lambda c: (size(c[1]), c[0]))
    for i, (form, g) in enumerate(classes):
        if i + 1 < len(classes) and classes[i + 1][0] == form:
            raise RuntimeError(f"class of {g} kept from two parents; the canonical-parent test is broken")
        classes[i] = (size(g), g)
    return classes


def _unions(pieces: List[Tuple[int, Graph]], total: int, with_pieces: bool) -> Iterator:
    """One disjoint union per multiset of pieces whose sizes sum to total,
    if with_pieces paired with its members in layout order. pieces are
    (size, graph) pairs by ascending size, in a fixed order; a multiset
    takes its members in that order, and its union lays them out in
    reverse, so the largest comes first and isolated vertices last."""

    def grow(start: int, rest: int, chosen: Tuple[Graph, ...]) -> Iterator:
        if not rest:
            layout = chosen[::-1]
            rows: Tuple[int, ...] = ()
            for g in layout:
                shift = len(rows)
                rows += tuple(r << shift for r in g.rows)
            union = Graph._unchecked(len(rows), rows)
            yield (union, layout) if with_pieces else union
            return
        for i in range(start, len(pieces)):
            size, g = pieces[i]
            if size > rest:
                break
            yield from grow(i, rest - size, chosen + (g,))

    yield from grow(0, total, ())


def _classes(k: int, max_n: int, max_m: int, workers: int) -> List[Tuple[bytes, Graph]]:
    """(canonical form, class) of every connected K_{2,k+1}-free class within
    max_n vertices and max_m edges, K_1 first. More workers deal 4 * workers
    subtrees or more round-robin to one pool, better balanced than chunks."""
    g0 = Graph.empty(1)
    nodes: List[Node] = [(canonical_form(g0), g0, ())]
    classes = _subtrees((nodes, k, max_n, max_m, 4 * workers if workers > 1 else 0))
    if nodes:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_subtrees, [(nodes[w::workers], k, max_n, max_m, 0) for w in range(workers)]):
                classes += part
    return classes


def _subtrees(args: Tuple[List[Node], int, int, int, int]) -> List[Tuple[bytes, Graph]]:
    return [node[:2] for node in _walk(*args)]


def _walk(nodes: List[Node], k: int, max_n: int, max_m: int, frontier: int = 0) -> Iterator[Node]:
    """Takes out of nodes, and yields, every node of their subtrees (max_m
    edges make a leaf): depth first, so automorphisms live only on the
    stack, or with a frontier breadth first until that many nodes wait."""
    while nodes and not 0 < frontier <= len(nodes):
        node = nodes.pop(0 if frontier else -1)
        yield node
        if node[1].m < max_m:
            nodes += _children(node, k, max_n)


def _orbit(x: _P, autos: Autos, image: Callable[[Automorphism, _P], _P]) -> Set[_P]:
    """The orbit of x under the group that autos generate; image(p, x) is
    x moved by p."""
    orbit = {x}
    frontier = [x]
    while frontier:
        y = frontier.pop()
        for p in autos:
            z = image(p, y)
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)
    return orbit


def _orbit_firsts(points: Sequence[_P], autos: Autos, image: Callable[[Automorphism, _P], _P]) -> List[_P]:
    """The first of points in each of their orbits under the group that
    autos generate; points must be closed under image."""
    if not autos:
        return list(points)
    seen: Set[_P] = set()
    out = []
    for x in points:
        if x not in seen:
            out.append(x)
            seen |= _orbit(x, autos, image)
    return out


def _pair_image(p: Automorphism, pair: Edge) -> Edge:
    a, b = p[pair[0]], p[pair[1]]
    return (a, b) if a < b else (b, a)


def _beaten_in(g: Graph) -> Beaten:
    """beaten(ends, a, b): whether a deletable edge of g (see _tied_edges),
    disjoint from the mask ends, has a larger degree pair than the edge
    with degrees a and b. Adding an edge on ends leaves such an edge its
    degrees and deletable, so _tied_edges would drop the child."""
    deg = [r.bit_count() for r in g.rows]
    deletable = [(a, b) for a, b in g.edges() if deg[a] == 1 or deg[b] == 1 or _on_cycle(g.rows, a, b)]
    # (degree pair, larger first; mask of the edge's ends), largest first
    pairs = sorted(((max(deg[a], deg[b]), min(deg[a], deg[b])), 1 << a | 1 << b) for a, b in deletable)[::-1]

    def beaten(ends: int, a: int, b: int) -> bool:
        pair = (a, b) if a >= b else (b, a)
        for p, mask in pairs:  # up to the first edge that does not beat f or is disjoint from it
            if p <= pair or not mask & ends:
                return p > pair
        return False

    return beaten


def _extend_fixed_order(g: Graph, k: int, autos: Autos, beaten: Beaten) -> List[Tuple[Graph, Edge]]:
    """One-edge extensions between present vertices that stay K_{2,k+1}-free
    and are not beaten (beaten is _beaten_in(g)), one per orbit of
    non-edges under autos (automorphisms of g), each with its added edge."""
    deg = [r.bit_count() + 1 for r in g.rows]  # in the child
    non_edges = [(u, v) for u, r in enumerate(g.rows) for v in _bits(~r & ((1 << g.n) - (2 << u)))]
    non_edges = [(u, v) for u, v in non_edges if not beaten(1 << u | 1 << v, deg[u], deg[v])]
    return [
        (g.add_edge(u, v), (u, v))
        for u, v in _orbit_firsts(non_edges, autos, _pair_image)
        if not adding_edge_creates_k2kp1(g, u, v, k)
    ]


def _extend_by_edges(g: Graph, max_n: int, autos: Autos, beaten: Beaten) -> List[Tuple[Graph, Edge]]:
    """One-edge extensions that add a vertex, within max_n vertices: a
    pendant edge to a fresh vertex, which cannot create a K_{2,k+1}, if not
    beaten (as for _extend_fixed_order); one per orbit of vertices under
    autos (automorphisms of g), each with its added edge."""
    if g.n + 1 > max_n:
        return []
    ends = [u for u, r in enumerate(g.rows) if not beaten(1 << u, r.bit_count() + 1, 1)]
    grown = Graph._unchecked(g.n + 1, g.rows + (0,))
    return [(grown.add_edge(u, g.n), (u, g.n)) for u in _orbit_firsts(ends, autos, getitem)]


def _on_cycle(rows: Tuple[int, ...], a: int, b: int) -> bool:
    """Whether the edge ab lies on a cycle: whether a search from a that
    does not take the edge reaches b."""
    seen = 1 << a
    frontier = rows[a] & ~(1 << b)
    while frontier:
        if frontier >> b & 1:
            return True
        seen |= frontier
        reach = 0
        for x in _bits(frontier):
            reach |= rows[x]
        frontier = reach & ~seen
    return False


def _tied_edges(child: Graph, f: Edge) -> Optional[List[Edge]]:
    """None if a deletable edge of child has a larger invariant than its
    added edge f; else the deletable edges whose invariant equals f's, f
    among them. An edge is deletable if it is pendant or on a cycle. Its
    invariant compares, each part only on a tie of the parts before it:
    the endpoint degrees, larger first; each endpoint's (degree, sum of
    its neighbours' degrees), larger endpoint first; the triangles
    through the edge. Whether an edge is deletable is asked only of the
    edges that tie with f or beat it."""
    rows = child.rows
    deg = [r.bit_count() for r in rows]

    def deletable(a: int, b: int) -> bool:
        return deg[a] == 1 or deg[b] == 1 or _on_cycle(rows, a, b)

    def ends(e: Edge) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        a, b = ((deg[x], sum(deg[y] for y in _bits(rows[x]))) for x in e)
        return (a, b) if a >= b else (b, a)

    def triangles(e: Edge) -> int:
        return (rows[e[0]] & rows[e[1]]).bit_count()

    # the degrees first, from masks of vertices by degree: an edge beats
    # f's (big, small) if it has an end above big, or an end at big and
    # the other above small; it ties if it has an end at big and the
    # other at small
    small, big = sorted((deg[f[0]], deg[f[1]]))
    above = at_big = above_small = at_small = 0
    for x, dx in enumerate(deg):
        if dx > big:
            above |= 1 << x
        elif dx == big:
            at_big |= 1 << x
        if dx > small:
            above_small |= 1 << x
        elif dx == small:
            at_small |= 1 << x
    for a in _bits(above):
        for b in _bits(rows[a] & ~(above & ((1 << a) - 1))):
            if deletable(a, b):
                return None
    tied = []
    for a in _bits(at_big):
        for b in _bits(rows[a] & above_small & ~above):
            if deletable(a, b):
                return None
        for b in _bits(rows[a] & at_small):
            if small < big or a < b:
                e = (a, b) if a < b else (b, a)
                if e != f:
                    tied.append(e)
    for invariant in (ends, triangles):
        if not tied:
            return [f]
        best = invariant(f)
        rest = []
        for e in tied:
            key = invariant(e)
            if key > best:
                if deletable(*e):
                    return None
            elif key == best:
                rest.append(e)
        tied = rest
    return [f] + [e for e in tied if deletable(*e)]


def _canonical_edge(tied: List[Edge], leaf: Sequence[int]) -> Edge:
    """The edge of tied whose pair of canonical labels is least; leaf[i]
    is the vertex that takes label i."""
    label = [0] * len(leaf)
    for i, v in enumerate(leaf):
        label[v] = i
    return min(tied, key=lambda e: sorted((label[e[0]], label[e[1]])))


def _keeps(child: Graph, f: Edge, tied: List[Edge], leaf: Sequence[int], autos: Autos, parent_form: bytes) -> bool:
    """Whether child, its parent plus f, is kept from this parent: whether
    child minus its canonical edge (see _canonical_edge) is isomorphic to
    the parent. tied is _tied_edges(child, f); leaf and autos are the best
    leaf and automorphisms its canonization gave; parent_form is the
    parent's canonical form. f is the canonical edge, or in its orbit
    under autos, or else the deletion is canonized: child has two edges
    or more, so it leaves at most one isolated vertex, which is dropped."""
    if len(tied) == 1:
        return True
    e = _canonical_edge(tied, leaf)
    if e == f or f in _orbit(e, autos, _pair_image):
        return True
    return canonical_form(child.remove_edge(*e).strip_isolated()) == parent_form


def _children(node: Node, k: int, max_n: int) -> Iterator[Node]:
    """The children node keeps (see _keeps), one per class, each a node
    with at most max_n vertices."""
    parent_form, g, autos = node
    # a class is kept from this parent or not, whichever of its children
    # comes first: only the first is judged
    judged: Set[bytes] = set()
    beaten = _beaten_in(g)
    for child, f in _extend_fixed_order(g, k, autos, beaten) + _extend_by_edges(g, max_n, autos, beaten):
        tied = _tied_edges(child, f)
        if tied is None:
            continue
        found: List[Automorphism] = []
        leaf: List[int] = []
        form = canonical_form(child, found, leaf)
        if form in judged:
            continue
        judged.add(form)
        if _keeps(child, f, tied, leaf, tuple(found), parent_form):
            yield form, child, tuple(found)
