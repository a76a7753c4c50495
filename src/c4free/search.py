"""
Hill-climbing maximization of the spectral radius over C4-free graphs with
a fixed number of edges, driven by eigenvector-guided rewiring moves, plus
the local eigenvector-weight checks used in the induction argument.

A move removes and adds equally many edges, must keep the graph C4-free,
and is accepted only when the recomputed spectral radius strictly
increases; the Rayleigh gain predicted from the current Perron vector only
orders the candidates.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .canon import canonical_form
from .graph import Graph, GraphError, adding_edge_creates_c4, _bits
from .spectral import DEFAULT_TOL, spectral_radius

Edge = Tuple[int, int]

IMPROVE_EPS = 1e-12


@dataclass(frozen=True)
class Move:
    removed: Tuple[Edge, ...]
    added: Tuple[Edge, ...]
    predicted_gain: float

    def apply(self, g: Graph) -> Graph:
        for u, v in self.removed:
            g = g.remove_edge(u, v)
        for u, v in self.added:
            g = g.add_edge(u, v)
        return g


@dataclass
class SearchState:
    current: Graph
    mu: float
    seed: int
    moves: List[dict] = field(default_factory=list)


def lemma1_test(g: Graph, g_prime: Graph, u: int) -> bool:
    """Rewiring strictness test: with x the Perron vector of connected g and
    the neighborhood of u strictly growing, <A'x, x> >= <Ax, x> forces
    mu(g') > mu(g). Returns whether the inner-product condition holds."""
    if g.n != g_prime.n:
        raise GraphError("graphs must share a vertex set")
    if not g.is_connected():
        raise GraphError("g must be connected (positive Perron vector)")
    old, new = g.rows[u], g_prime.rows[u]
    if old & ~new or old == new:
        raise GraphError("need strict neighborhood containment at u")
    x = spectral_radius(g).vec
    qa = sum(x[a] * x[b] for a, b in g.edges())
    qb = sum(x[a] * x[b] for a, b in g_prime.edges())
    return qb >= qa


def _rayleigh_gain(x: np.ndarray, removed: Sequence[Edge], added: Sequence[Edge]) -> float:
    return float(
        sum(x[a] * x[b] for a, b in added) - sum(x[a] * x[b] for a, b in removed)
    )


def _c4free_after(g: Graph, move_removed: Sequence[Edge], move_added: Sequence[Edge]) -> Optional[Graph]:
    try:
        h = g
        for u, v in move_removed:
            h = h.remove_edge(u, v)
        for u, v in move_added:
            if h.has_edge(u, v):
                return None
            if adding_edge_creates_c4(h, u, v):
                return None
            h = h.add_edge(u, v)
        return h
    except GraphError:
        return None


def propose_moves(g: Graph, x: np.ndarray) -> List[Move]:
    """Candidate edge-count-preserving rewires, ordered by predicted
    Rayleigh gain (descending).

    Includes every single-edge rewire (moving a leaf to the heaviest vertex
    and swapping the anchor of a path endpoint among them) plus the
    multi-edge relocations the extremal argument uses: pulling an isolated
    edge of G[W] onto the heaviest vertex, and relocating a 3-path.
    """
    moves: dict[Tuple[Tuple[Edge, ...], Tuple[Edge, ...]], Move] = {}
    edges = list(g.edges())
    non_edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]

    def consider(removed: Sequence[Edge], added: Sequence[Edge]) -> None:
        removed = tuple(sorted(tuple(sorted(e)) for e in removed))
        added = tuple(sorted(tuple(sorted(e)) for e in added))
        if set(removed) & set(added):
            return
        key = (removed, added)
        if key in moves:
            return
        if _c4free_after(g, removed, added) is None:
            return
        moves[key] = Move(removed, added, _rayleigh_gain(x, removed, added))

    for e in edges:
        for ne in non_edges:
            if ne != e:
                consider([e], [ne])

    top = int(np.argmax(x))
    # isolated-edge and path relocations onto the heaviest vertex
    for u, v in edges:
        if top in (u, v):
            continue
        if g.degree(u) == 2 and g.degree(v) == 2:
            ku = next(a for a in _bits(g.rows[u]) if a != v)
            kv = next(a for a in _bits(g.rows[v]) if a != u)
            if top not in (ku, kv):
                consider([(u, ku), (v, kv)], [(u, top), (v, top)])
    for v in range(g.n):
        if g.degree(v) == 2 and v != top:
            u, w = list(_bits(g.rows[v]))
            if g.degree(u) == 2 and g.degree(w) == 2 and top not in (u, w):
                ku = next((a for a in _bits(g.rows[u]) if a != v), None)
                kw = next((a for a in _bits(g.rows[w]) if a != v), None)
                if ku is not None and kw is not None and top not in (ku, kw):
                    consider([(u, ku), (w, kw), (u, v)], [(u, top), (v, top), (w, top)])

    return sorted(moves.values(), key=lambda mv: -mv.predicted_gain)


def random_c4free_graph(m: int, rng: random.Random, attempts: int = 100) -> Graph:
    """Random C4-free graph with m edges on at most m+1 vertices: a uniform
    random labelled tree (Pruefer) topped up with random C4-safe edges.
    Isolated spare vertices pad the vertex set to m+1."""
    n_lo = max(2, math.ceil((1 + math.sqrt(1 + 8 * m)) / 2))
    for _ in range(attempts):
        n = rng.randint(n_lo, m + 1)
        g = _random_tree(n, rng)
        ok = True
        while g.m < min(m, n * (n - 1) // 2):
            candidates = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v) and not adding_edge_creates_c4(g, u, v)
            ]
            if not candidates:
                ok = False
                break
            g = g.add_edge(*rng.choice(candidates))
        if ok and g.m == m:
            return Graph(m + 1, g.rows + (0,) * (m + 1 - n))
    raise RuntimeError(f"could not build a random C4-free graph with {m} edges")


def _random_tree(n: int, rng: random.Random) -> Graph:
    if n == 1:
        return Graph.empty(1)
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def _best_improving(
    state: SearchState, candidates: List[Move], tol: float
) -> Optional[Tuple[float, Graph, Move]]:
    best: Optional[Tuple[float, Graph, Move]] = None
    for mv in candidates:
        h = mv.apply(state.current)
        mu_h = spectral_radius(h, tol).mu
        if mu_h <= state.mu + IMPROVE_EPS:
            continue
        if best is None or mu_h > best[0] + IMPROVE_EPS:
            best = (mu_h, h, mv)
        elif abs(mu_h - best[0]) <= IMPROVE_EPS:
            # tie on mu: prefer the smaller canonical form
            if canonical_form(h.strip_isolated()) < canonical_form(
                best[1].strip_isolated()
            ):
                best = (mu_h, h, mv)
    return best


def _climb_once(m: int, seed: int, tol: float) -> SearchState:
    rng = random.Random(seed)
    g = random_c4free_graph(m, rng)
    res = spectral_radius(g, tol)
    state = SearchState(current=g, mu=res.mu, seed=seed)
    while True:
        candidates = propose_moves(state.current, res.vec)
        # a positive predicted gain already guarantees strict improvement by
        # the Rayleigh principle, so scan those first and fall back to the
        # full neighborhood only when needed to certify local optimality
        promising = [mv for mv in candidates if mv.predicted_gain > -1e-9]
        rest = [mv for mv in candidates if mv.predicted_gain <= -1e-9]
        best = _best_improving(state, promising, tol)
        if best is None:
            best = _best_improving(state, rest, tol)
        if best is None:
            return state
        mu_h, h, mv = best
        state.moves.append(
            {
                "removed": [list(e) for e in mv.removed],
                "added": [list(e) for e in mv.added],
                "mu_before": state.mu,
                "mu_after": mu_h,
            }
        )
        state.current = h
        state.mu = mu_h
        res = spectral_radius(h, tol)


def hill_climb(
    m: int,
    restarts: int = 5,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
) -> SearchState:
    """Best state over independent random restarts; deterministic given
    seed. Restart i uses its own RNG stream derived from the master seed."""
    if m < 1:
        raise ValueError("need m >= 1")
    seeds = [seed * 1_000_003 + i for i in range(restarts)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            states = list(pool.map(_climb_once, [m] * restarts, seeds, [tol] * restarts))
    else:
        states = [_climb_once(m, s, tol) for s in seeds]
    return max(states, key=lambda st: st.mu)


def claim1_check(g: Graph, u: int, v: int) -> bool:
    """Adjacent degree-2 vertices in a connected C4-free graph with m >= 14:
    the Perron weight product x_u x_v stays below 1/(4 mu)."""
    if not g.has_edge(u, v):
        raise GraphError("uv must be an edge")
    if g.degree(u) != 2 or g.degree(v) != 2:
        raise GraphError("claim needs d(u) = d(v) = 2")
    if g.m < 14:
        raise GraphError("claim needs m >= 14")
    if g.has_c4() or not g.is_connected():
        raise GraphError("claim needs a connected C4-free graph")
    r = spectral_radius(g)
    return float(r.vec[u] * r.vec[v]) < 1.0 / (4.0 * r.mu)


def claim2_check(g: Graph, u: int, v: int, w: int) -> bool:
    """Degree pattern (2,3,2) along u-v-w with m >= 20: at least one of the
    products x_u x_v, x_w x_v is below 1/(4 mu)."""
    if not (g.has_edge(u, v) and g.has_edge(v, w)):
        raise GraphError("need edges uv and vw")
    if g.degree(u) != 2 or g.degree(w) != 2 or g.degree(v) != 3:
        raise GraphError("claim needs d(u) = d(w) = 2 and d(v) = 3")
    if g.m < 20:
        raise GraphError("claim needs m >= 20")
    if g.has_c4() or not g.is_connected():
        raise GraphError("claim needs a connected C4-free graph")
    r = spectral_radius(g)
    thresh = 1.0 / (4.0 * r.mu)
    return float(r.vec[u] * r.vec[v]) < thresh or float(r.vec[w] * r.vec[v]) < thresh


def claim3_check(g: Graph, u: int, v: int) -> bool:
    """If x_u x_v <= 1/(4 mu) for an edge uv, then removing it costs less
    than 1 in mu^2."""
    if not g.has_edge(u, v):
        raise GraphError("uv must be an edge")
    r = spectral_radius(g)
    if float(r.vec[u] * r.vec[v]) > 1.0 / (4.0 * r.mu):
        raise GraphError("hypothesis x_u x_v <= 1/(4 mu) fails")
    mu2_minus = spectral_radius(g.remove_edge(u, v)).mu ** 2
    return mu2_minus > r.mu**2 - 1.0
