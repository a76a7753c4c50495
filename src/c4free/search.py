"""
Hill-climbing maximization of the spectral radius over C4-free graphs with
a fixed number of edges, driven by eigenvector-guided rewiring moves, plus
the local eigenvector-weight checks used in the induction argument.

A move removes and adds equally many edges, must keep the graph C4-free,
and is accepted only when the recomputed spectral radius strictly
increases; the Rayleigh gain predicted from the current Perron vector only
orders the candidates. Candidates are edge flips on the current graph: each
step solves their adjacency matrices in one stacked eigensolve, and only the
accepted move is built as a Graph.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph, GraphError, adding_edge_creates_c4, _bits, _k2kp1_after_adding
from .spectral import rayleigh, spectral_radii, spectral_radius, to_numpy

Edge = Tuple[int, int]

IMPROVE_EPS = 1e-12


@dataclass(frozen=True)
class Move:
    """A rewire of the graph it was proposed on: the edges it removes, the
    edges it adds, and the Rayleigh gain predicted from that graph's Perron
    vector. It holds no graph; `apply` builds one."""

    removed: Tuple[Edge, ...]
    added: Tuple[Edge, ...]
    predicted_gain: float

    def apply(self, g: Graph) -> Graph:
        """The rewired graph, built by the checked edge operations."""
        for e in self.removed:
            g = g.remove_edge(*e)
        for e in self.added:
            g = g.add_edge(*e)
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
    return rayleigh(g_prime, x) >= rayleigh(g, x)


def _rayleigh_gain(x: np.ndarray, removed: Sequence[Edge], added: Sequence[Edge]) -> float:
    return float(
        sum(x[a] * x[b] for a, b in added) - sum(x[a] * x[b] for a, b in removed)
    )


def _c4free_after(rows: Sequence[int], removed: Sequence[Edge], added: Sequence[Edge]) -> bool:
    """Does the rewire keep the graph with these bitrows C4-free? Each
    added edge is tested on the rows with the removed edges cleared and the
    earlier added edges set. A move that removes an absent edge, or one edge
    twice (a 3-path relocation on a K_3), is refused, and so is one that adds
    a present edge uv: the test counts u, a neighbour of v, as sharing v with
    itself."""
    h = list(rows)
    for u, v in removed:
        if not h[u] >> v & 1:
            return False
        h[u] &= ~(1 << v)
        h[v] &= ~(1 << u)
    for u, v in added:
        if _k2kp1_after_adding(h, u, v, 1):
            return False
        h[u] |= 1 << v
        h[v] |= 1 << u
    return True


def propose_moves(g: Graph, x: np.ndarray) -> List[Move]:
    """Candidate edge-count-preserving rewires, ordered by predicted
    Rayleigh gain (descending).

    Includes every single-edge rewire (moving a leaf to the heaviest vertex
    and swapping the anchor of a path endpoint among them) plus the
    multi-edge relocations the extremal argument uses: pulling an isolated
    edge of G[W] onto the heaviest vertex, and relocating a 3-path.
    """
    moves: List[Move] = []
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
        if _c4free_after(g.rows, removed, added):
            moves.append(Move(removed, added, _rayleigh_gain(x, removed, added)))

    for e in edges:
        for ne in non_edges:
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

    return sorted(moves, key=lambda mv: -mv.predicted_gain)


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


def _candidate_stack(g: Graph, moves: Sequence[Move]) -> np.ndarray:
    """The adjacency matrix of each move applied to g, as a (len(moves), n, n)
    stack of 0/1 bytes: g's matrix copied once per move, with the removed
    entries cleared and then the added entries set."""
    stack = np.repeat(to_numpy(g).astype(np.uint8)[None], len(moves), axis=0)
    for value, edges in (
        (0, [(i, a, b) for i, mv in enumerate(moves) for a, b in mv.removed]),
        (1, [(i, a, b) for i, mv in enumerate(moves) for a, b in mv.added]),
    ):
        i, a, b = np.array(edges, dtype=np.intp).reshape(-1, 3).T
        stack[i, a, b] = stack[i, b, a] = value
    return stack


def _best_improving(state: SearchState, candidates: Sequence[Move]) -> Optional[Move]:
    """The candidate of largest mu above state.mu + IMPROVE_EPS. Every
    candidate's mu comes from one stacked eigensolve of the candidates'
    adjacency matrices (`spectral_radii`); the top eigenvalue of a whole
    adjacency matrix is the graph's mu, so no candidate is built as a Graph
    or split into components. A candidate replaces the best so far only
    when its mu is larger by more than IMPROVE_EPS, so a tie keeps the
    earlier candidate; the order (predicted gain, then proposal order) is
    fixed, so the result is too."""
    mus = spectral_radii(_candidate_stack(state.current, candidates))
    best, best_mu = None, state.mu
    for mv, mu in zip(candidates, mus.tolist()):
        if mu > best_mu + IMPROVE_EPS:
            best, best_mu = mv, mu
    return best


def _climb_once(m: int, seed: int) -> SearchState:
    rng = random.Random(seed)
    g = random_c4free_graph(m, rng)
    res = spectral_radius(g)
    state = SearchState(current=g, mu=res.mu, seed=seed)
    while True:
        candidates = propose_moves(state.current, res.vec)
        # a positive predicted gain already guarantees strict improvement by
        # the Rayleigh principle, so scan those first and fall back to the
        # full neighborhood only when needed to certify local optimality
        promising = [mv for mv in candidates if mv.predicted_gain > -1e-9]
        rest = [mv for mv in candidates if mv.predicted_gain <= -1e-9]
        mv = _best_improving(state, promising) or _best_improving(state, rest)
        if mv is None:
            return state
        # only the winner is built and solved, for its Perron vector
        g = mv.apply(state.current)
        res = spectral_radius(g)
        state.moves.append(
            {
                "removed": [list(e) for e in mv.removed],
                "added": [list(e) for e in mv.added],
                "mu_before": state.mu,
                "mu_after": res.mu,
            }
        )
        state.current = g
        state.mu = res.mu


def hill_climb(
    m: int,
    restarts: int = 5,
    seed: int = 0,
    workers: int = 1,
) -> SearchState:
    """Best state over independent random restarts; deterministic given
    seed. Restart i uses its own RNG stream derived from the master seed."""
    if m < 1:
        raise ValueError("need m >= 1")
    if restarts < 1:
        raise ValueError("need restarts >= 1")
    if workers < 1:
        raise ValueError("need workers >= 1")
    seeds = [seed * 1_000_003 + i for i in range(restarts)]
    workers = min(workers, restarts)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            states = list(pool.map(_climb_once, [m] * restarts, seeds))
    else:
        states = [_climb_once(m, s) for s in seeds]
    return max(states, key=lambda st: st.mu)


def claim1_check(g: Graph, u: int, v: int) -> bool:
    """Adjacent degree-2 vertices in a connected C4-free graph with m >= 14:
    the Perron weight product x_u x_v stays below 1/(4 mu). These stated
    hypotheses do not imply the claim: on the tadpole M{CGGC@?G?_@?@??_ (a
    triangle with an 11-edge path, mu = 2.2361) the pair (1, 2) has
    x_1 x_2 = 0.2236 against 1/(4 mu) = 0.1118, and the check is False."""
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
