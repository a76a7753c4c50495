"""
Hill-climbing maximization of the spectral radius over C4-free graphs with
a fixed number of edges, driven by eigenvector-guided rewiring moves, plus
the local eigenvector-weight checks used in the induction argument.

A move removes and adds equally many edges, must keep the graph C4-free,
and is accepted only when the recomputed spectral radius strictly
increases; the Rayleigh gain predicted from the current Perron vector only
orders the candidates. The candidates of a step are rewires of the current
graph held as index arrays (`Candidates`), not as objects: the single-edge
flips are decided all at once by counting walks of length 3, their gains are
array operations, and their adjacency matrices are built and solved in
stacks of RADII_CHUNK. Only the accepted candidate is built as a Move, and
then as a checked Graph.

Each step canonizes the current graph once, for the automorphisms
`canonical_form` proves on it, and labels every single-edge flip with its
orbit under them. Flips of one orbit rewire the graph into isomorphic
graphs of one mu, so only the first member of each orbit in a scanned range
is solved; the tie rule (a later candidate must beat the best by more than
IMPROVE_EPS) is what makes the skipped members unable to change the result.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .canon import canonical_form
from .graph import Graph, GraphError, adding_edge_creates_c4, _bits, _k2kp1_after_adding
from . import spectral
from .spectral import rayleigh, spectral_radii, spectral_radius

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


@dataclass(frozen=True, eq=False)
class Candidates:
    """The rewires proposed on one graph, in climb order: parallel index
    arrays (candidate, a, b) of the entries each candidate clears and sets,
    sorted by candidate, the predicted Rayleigh gains, and orbit labels.

    orbit[i] is the climb index of the first candidate of candidate i's
    orbit under the automorphisms the canonizer proved on the graph. The
    members of an orbit are rewires onto isomorphic graphs, so they have
    one mu; a relocation is an orbit of its own."""

    adjacency: np.ndarray  # the graph's 0/1 matrix
    removed: Tuple[np.ndarray, np.ndarray, np.ndarray]
    added: Tuple[np.ndarray, np.ndarray, np.ndarray]
    gains: np.ndarray
    orbit: np.ndarray

    def __len__(self) -> int:
        return len(self.gains)

    def move(self, i: int) -> Move:
        edges = []
        for c, a, b in (self.removed, self.added):
            s = slice(*np.searchsorted(c, (i, i + 1)))
            edges.append(tuple(zip(a[s].tolist(), b[s].tolist())))
        return Move(edges[0], edges[1], float(self.gains[i]))

    def stack(self, idx: np.ndarray) -> np.ndarray:
        """The 0/1 adjacency matrices of the candidates idx (distinct
        indices), as a (len(idx), n, n) stack: the removed entries cleared,
        then the added set."""
        row = np.full(len(self), -1)
        row[idx] = np.arange(len(idx))
        out = np.repeat(self.adjacency[None], len(idx), axis=0)
        for value, (c, a, b) in enumerate((self.removed, self.added)):  # 0 for removed, 1 for added
            r = row[c]
            s = r >= 0
            out[r[s], a[s], b[s]] = out[r[s], b[s], a[s]] = value
        return out


def _single_flips(adjacency: np.ndarray, ea: np.ndarray, eb: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(k, u, v), u < v, in proposal order: removing edge k (ea[k], eb[k])
    and adding the non-edge uv keeps the graph C4-free. A 4-cycle through uv
    in g - e is a walk of length 3 from u to v in g - e, so the 3-walk counts
    of every g - e, taken in integers, decide all flips at once."""
    k = np.arange(len(ea))
    h = np.repeat(adjacency[None].astype(np.int64), len(ea), axis=0)
    h[k, ea, eb] = h[k, eb, ea] = 0
    return np.nonzero((h @ h @ h == 0) & np.triu(adjacency == 0, 1))


def _generators(g: Graph) -> np.ndarray:
    """The automorphisms canonical_form proves on g, as a (G, n) array."""
    autos: List[Tuple[int, ...]] = []
    canonical_form(g, automorphisms=autos)
    return np.array(autos, dtype=np.intp).reshape(-1, g.n)


def _flip_orbits(gens: np.ndarray, n: int, a: np.ndarray, b: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each flip i, removing the edge a[i]b[i] and adding the non-edge
    u[i]v[i], the least index of a flip in its orbit under the group the
    rows of gens generate. A flip is keyed by its two vertex pairs, and the
    keys ascend in the order `_single_flips` gives; each generator's images
    are looked up among the keys, and an image whose key is not there raises
    RuntimeError. The orbits are the classes of a
    union-find over the pairs (flip, image), merged one generator at a time,
    so the temporaries are O(flips)."""

    def keys(a, b, u, v):
        return ((np.minimum(a, b) * n + np.maximum(a, b)) * n + np.minimum(u, v)) * n + np.maximum(u, v)

    own = keys(a, b, u, v)
    label = np.arange(len(own))
    if not len(own):
        return label
    for p in gens:
        img = keys(p[a], p[b], p[u], p[v])
        j = np.minimum(np.searchsorted(own, img), len(own) - 1)
        if not np.array_equal(own[j], img):
            raise RuntimeError("an automorphism maps a C4-free flip to no flip")
        while True:
            while not np.array_equal(up := label[label], label):
                label = up
            ri, rj = label, label[j]
            d = ri != rj
            if not d.any():
                break
            # hook each root onto the least root it is paired with
            np.minimum.at(label, np.maximum(ri[d], rj[d]), np.minimum(ri[d], rj[d]))
    return label


def propose_moves(g: Graph, x: np.ndarray) -> Candidates:
    """Candidate edge-count-preserving rewires, ordered by predicted
    Rayleigh gain (descending), then by proposal order.

    Includes every single-edge rewire (`_single_flips`: moving a leaf to the
    heaviest vertex and swapping the anchor of a path endpoint among them)
    plus the multi-edge relocations the extremal argument uses: pulling an
    isolated edge of G[W] onto the heaviest vertex, and relocating a 3-path.
    """
    relocations: List[Move] = []
    edges = list(g.edges())

    def consider(removed: Sequence[Edge], added: Sequence[Edge]) -> None:
        removed = tuple(sorted(tuple(sorted(e)) for e in removed))
        added = tuple(sorted(tuple(sorted(e)) for e in added))
        if _c4free_after(g.rows, removed, added):
            relocations.append(Move(removed, added, _rayleigh_gain(x, removed, added)))

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

    ea, eb = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    adjacency = np.zeros((g.n, g.n), np.uint8)
    adjacency[ea, eb] = adjacency[eb, ea] = 1
    k, fu, fv = _single_flips(adjacency, ea, eb)
    roots = _flip_orbits(_generators(g), g.n, ea[k], eb[k], fu, fv)
    gains = np.concatenate(
        [x[fu] * x[fv] - x[ea[k]] * x[eb[k]], [mv.predicted_gain for mv in relocations]]
    )
    order = np.argsort(-gains, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))

    def entries(a: np.ndarray, b: np.ndarray, extra: List[Tuple[Edge, ...]]) -> Tuple[np.ndarray, ...]:
        # the flips' entries, then the relocations', renumbered in climb order
        rows = [(len(k) + j, *e) for j, es in enumerate(extra) for e in es]
        i, ra, rb = np.array(rows, dtype=np.intp).reshape(-1, 3).T
        i = rank[np.concatenate([np.arange(len(k)), i])]
        by = np.argsort(i, kind="stable")
        return i[by], np.concatenate([a, ra])[by], np.concatenate([b, rb])[by]

    removed = entries(ea[k], eb[k], [mv.removed for mv in relocations])
    added = entries(fu, fv, [mv.added for mv in relocations])
    # an orbit of flips is labelled by its first member in climb order; each
    # relocation is its own
    first = np.full(len(k), len(order))
    np.minimum.at(first, roots, rank[: len(k)])
    orbit = np.arange(len(order))
    orbit[rank[: len(k)]] = first[roots]
    return Candidates(adjacency, removed, added, gains[order], orbit)


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


def _best_improving(state: SearchState, cands: Candidates, lo: int, hi: int) -> Optional[int]:
    """The index in lo..hi-1 of the candidate of largest mu above
    state.mu + IMPROVE_EPS, with one candidate solved per orbit: the first
    member of each orbit within lo..hi-1 (`Candidates.orbit`). The solved
    candidates' adjacency matrices are built and solved RADII_CHUNK at a time
    (`spectral_radii`), so memory does not grow with the range; the top
    eigenvalue of a whole adjacency matrix is the graph's mu, so no candidate
    is built as a Graph or split into components. A candidate replaces the
    best so far only when its mu is larger by more than IMPROVE_EPS, so a tie
    keeps the earlier candidate; the order (predicted gain, then proposal
    order) is fixed, so the result is too.

    Skipping the later members of an orbit is exact in exact arithmetic: a
    later member is isomorphic to the solved first one, so its mu is equal
    and, by the tie rule, it could not have replaced the best. In floats the
    members' mu differ by rounding only (at most 1.5e-14 over the 356 climb
    states of m = 9..18, seeds 1 and 7), so a skipped member could change
    the result only if the first member's mu lay within that rounding of
    best + IMPROVE_EPS."""
    _, firsts = np.unique(cands.orbit[lo:hi], return_index=True)
    solve = lo + np.sort(firsts)
    best, best_mu = None, state.mu
    for start in range(0, len(solve), spectral.RADII_CHUNK):
        idx = solve[start : start + spectral.RADII_CHUNK]
        for i, mu in zip(idx.tolist(), spectral_radii(cands.stack(idx)).tolist()):
            if mu > best_mu + IMPROVE_EPS:
                best, best_mu = i, mu
    return best


def _climb_once(m: int, seed: int) -> SearchState:
    rng = random.Random(seed)
    g = random_c4free_graph(m, rng)
    res = spectral_radius(g)
    state = SearchState(current=g, mu=res.mu, seed=seed)
    while True:
        cands = propose_moves(state.current, res.vec)
        # a positive predicted gain already guarantees strict improvement by
        # the Rayleigh principle, so scan those first (a prefix of the order)
        # and fall back to the rest only when needed to certify local optimality
        promising = int(np.count_nonzero(cands.gains > -1e-9))
        i = _best_improving(state, cands, 0, promising)
        if i is None:
            i = _best_improving(state, cands, promising, len(cands))
        if i is None:
            return state
        mv = cands.move(i)
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
