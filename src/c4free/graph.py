"""
Undirected simple graphs as adjacency bitrows.

A graph is an immutable value: ``n`` vertices labelled 0..n-1 and a tuple of
``n`` Python ints, where bit j of ``rows[i]`` says that i and j are adjacent.
Python ints give unbounded bitrows, so direct constructors (stars, S_{n,k},
friendship graphs) work for any order; enumeration-facing code keeps n <= 64.

All mutating operations return new graphs; values are hashable and safe to
share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple


class GraphError(ValueError):
    """Raised on invalid graph construction or edge operations."""


@dataclass(frozen=True)
class Graph:
    n: int
    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.rows) != self.n:
            raise GraphError(f"need {self.n} bitrows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if r & ~full:
                raise GraphError(f"row {i} has bits outside 0..{self.n - 1}")
            if r >> i & 1:
                raise GraphError(f"self-loop at vertex {i}")
        for i, r in enumerate(self.rows):
            for j in _bits(r):
                if not self.rows[j] >> i & 1:
                    raise GraphError(f"asymmetric adjacency at ({i}, {j})")

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"bad edge ({u}, {v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def edges(self) -> Iterator[Tuple[int, int]]:
        for u in range(self.n):
            r = self.rows[u] >> (u + 1) << (u + 1)
            for v in _bits(r):
                yield (u, v)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    @classmethod
    def _unchecked(cls, n: int, rows: Tuple[int, ...]) -> "Graph":
        """A graph on rows that are valid by construction, built without
        the checks of __post_init__."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    def _check_pair(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"vertex pair ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise GraphError("self-loop")

    def add_edge(self, u: int, v: int) -> "Graph":
        self._check_pair(u, v)
        if self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) already present")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._unchecked(self.n, tuple(rows))

    def remove_edge(self, u: int, v: int) -> "Graph":
        self._check_pair(u, v)
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) not present")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._unchecked(self.n, tuple(rows))

    def common_neighbors(self, u: int, v: int) -> int:
        if u == v:
            raise GraphError("common_neighbors needs distinct vertices")
        return (self.rows[u] & self.rows[v]).bit_count()

    def has_k2kp1(self, k: int) -> bool:
        """True iff some vertex pair has >= k+1 common neighbors
        (i.e. the graph contains K_{2,k+1} as a subgraph)."""
        if k < 1:
            raise GraphError("threshold k must be >= 1")
        rows = self.rows
        for u in range(self.n):
            ru = rows[u]
            for v in range(u + 1, self.n):
                if (ru & rows[v]).bit_count() > k:
                    return True
        return False

    def has_c4(self) -> bool:
        """True iff the graph contains a 4-cycle, i.e. two vertices with
        at least two common neighbors."""
        return self.has_k2kp1(1)

    def strip_isolated(self) -> "Graph":
        """Drop degree-0 vertices and relabel the rest compactly."""
        keep = [i for i in range(self.n) if self.rows[i]]
        relabel = {v: i for i, v in enumerate(keep)}
        edges = [(relabel[u], relabel[v]) for u, v in self.edges()]
        return Graph.from_edges(len(keep), edges)

    def components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists, in order of smallest
        vertex."""
        seen = 0
        out: List[List[int]] = []
        for s in range(self.n):
            if seen >> s & 1:
                continue
            comp = 1 << s
            frontier = 1 << s
            while frontier:
                nxt = 0
                for v in _bits(frontier):
                    nxt |= self.rows[v]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            out.append(list(_bits(comp)))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def relabel(self, perm: Tuple[int, ...]) -> "Graph":
        """Apply a permutation: vertex v gets new label perm[v]. Raises
        GraphError unless perm is a permutation of 0..n-1."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError(f"relabel needs a permutation of 0..{self.n - 1}, got {tuple(perm)}")
        return Graph.from_edges(self.n, [(perm[u], perm[v]) for u, v in self.edges()])


def _bits(x: int) -> Iterator[int]:
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def make_star(n: int) -> Graph:
    """Star K_{1,n-1}: vertex 0 adjacent to all others."""
    if n < 1:
        raise GraphError("star needs n >= 1")
    return Graph.from_edges(n, [(0, j) for j in range(1, n)])


@dataclass(frozen=True)
class SnkParams:
    """Order n and matching size k of the star-plus-matching graph S_{n,k}."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError("S_{n,k} needs n >= 1")
        if not 0 <= self.k <= (self.n - 1) // 2:
            raise GraphError(f"need 0 <= k <= (n-1)//2, got k={self.k}, n={self.n}")

    @property
    def m(self) -> int:
        return self.n - 1 + self.k


def make_snk(n: int, k: int) -> Graph:
    """Star of order n with k disjoint edges among the leaves:
    edges {1,2}, ..., {2k-1,2k} in addition to the star at vertex 0."""
    p = SnkParams(n, k)
    edges = [(0, j) for j in range(1, n)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(p.k)]
    return Graph.from_edges(n, edges)


def make_friendship(k: int) -> Graph:
    """Friendship graph F_k: k triangles sharing vertex 0; same as
    S_{2k+1, k}."""
    if k < 1:
        raise GraphError("friendship graph needs k >= 1")
    return make_snk(2 * k + 1, k)


def adding_edge_creates_c4(g: Graph, u: int, v: int) -> bool:
    """Would adding the non-edge uv create a 4-cycle, i.e. a K_{2,2}?"""
    return adding_edge_creates_k2kp1(g, u, v, 1)


def adding_edge_creates_k2kp1(g: Graph, u: int, v: int, k: int) -> bool:
    """Would adding the non-edge uv create a vertex pair with >= k+1 common
    neighbors?"""
    return _k2kp1_after_adding(g.rows, u, v, k)


def _k2kp1_after_adding(rows: Sequence[int], u: int, v: int, k: int) -> bool:
    """The same test on bare bitrows. Only the pairs (u, x) with x in N(v),
    which gain v, and (v, x) with x in N(u), which gain u, gain a common
    neighbor; each trips when it already has k."""
    ru, rv = rows[u], rows[v]
    for x in _bits(rv):
        if (ru & rows[x]).bit_count() >= k:
            return True
    for x in _bits(ru):
        if (rv & rows[x]).bit_count() >= k:
            return True
    return False
