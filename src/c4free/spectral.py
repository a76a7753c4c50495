"""
Perron root computation and the closed-form spectral radius of S_{n,k}.

Every eigensolve goes through one core, `_top_pairs`: a dense symmetric
eigensolve (LAPACK, through numpy.linalg.eigh) of a stack of matrices, with
the residual of each top eigenpair held to DEFAULT_TOL.
One solve serves every stream of graphs: it reads a block ahead, solves
each distinct piece of the block once, stacking the pieces of one order,
and takes each graph's mu and residual as the largest over its pieces.
`union_radii` is handed the pieces of each disjoint union, and builds a
Perron vector only when asked; `spectral_radius_stream` splits arbitrary
graphs into components, and `spectral_radius` is its one-graph case.
`spectral_radii` solves a stack of whole adjacency matrices: the top
eigenvalue of a graph's adjacency matrix is its spectral radius
(Perron-Frobenius), so mu alone needs no split into components.
mu(S_{n,k}) additionally has a cubic characteristic factor
x^3 - x^2 - (n-1)x + n-1-2k whose largest root is found by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graph import Graph, SnkParams, _bits

DEFAULT_TOL = 1e-12

RADII_CHUNK = 64  # matrices per stacked eigensolve, and per stack the climb builds; bounds their memory

STREAM_BLOCK = 512  # graphs read ahead by each stream's solve; bounds its cache

INV_SQRT2 = 2.0 ** -0.5


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested residual."""


@dataclass(frozen=True)
class SpectralResult:
    mu: float
    vec: np.ndarray
    residual: float  # largest over the solved components
    iters: int  # components with an edge, each solved as one matrix


def to_numpy(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def _top_pairs(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top eigenpair of each real symmetric matrix of a (B, n, n) stack: the
    (B,) eigenvalues, the (B, n) unit eigenvectors and the (B,) residuals
    max|Av - mu v|.

    The stack is solved RADII_CHUNK matrices at a time, each chunk converted
    to float64, so the eigensolver's memory does not grow with B. A residual
    above DEFAULT_TOL, read at call time, raises ConvergenceError.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"need a (B, n, n) stack with n >= 1, got shape {stack.shape}")
    mus, vecs, res = np.empty(len(stack)), np.empty(stack.shape[:2]), np.empty(len(stack))
    for lo in range(0, len(stack), RADII_CHUNK):
        chunk = stack[lo : lo + RADII_CHUNK].astype(float)
        w, v = np.linalg.eigh(chunk)
        mu, vec = w[:, -1], v[:, :, -1]
        r = np.abs(np.matmul(chunk, vec[:, :, None])[:, :, 0] - mu[:, None] * vec).max(axis=1)
        if r.max() > DEFAULT_TOL:
            worst = int(r.argmax())
            raise ConvergenceError(
                f"residual {r[worst]:.3e} above tol {DEFAULT_TOL:.3e} "
                f"(matrix {lo + worst} of a stack of {len(stack)}, n = {stack.shape[1]})"
            )
        hi = lo + len(chunk)
        mus[lo:hi], vecs[lo:hi], res[lo:hi] = mu, vec, r
    return mus, vecs, res


def spectral_radius(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue with nonnegative unit eigenvector: the
    one-graph case of `spectral_radius_stream`."""
    return next(spectral_radius_stream([g]))[1]


_Pieces = list[tuple[Sequence[int], tuple[int, ...]]]  # per piece: its vertices, its bitrows relabelled 0..k-1


class Radius(NamedTuple):
    """mu of a graph, the largest residual over its pieces and the pieces
    with an edge; perron() builds its unit Perron vector."""

    mu: float
    residual: float
    iters: int
    perron: Callable[[], np.ndarray]


def spectral_radius_stream(graphs: Iterable[Graph]) -> Iterator[tuple[Graph, SpectralResult]]:
    """(graph, its SpectralResult) for each graph of a stream, in order:
    the solve of `union_radii`, over the connected components of each
    graph, each keyed by its bitrows relabelled 0..k-1 in vertex order."""
    for g, r in _radii((g, _components(g)) for g in graphs):
        yield g, SpectralResult(mu=r.mu, vec=r.perron(), residual=r.residual, iters=r.iters)


def union_radii(unions: Iterable[tuple[Graph, Sequence[Graph]]]) -> Iterator[tuple[Graph, Radius]]:
    """(union, its Radius) for each disjoint union of a stream, given with
    its connected pieces in layout order. mu and the residual are the
    largest over the pieces, the first largest mu winning, and the Perron
    vector is supported on that piece and zero elsewhere."""

    def layout(pieces: Sequence[Graph]) -> _Pieces:
        ends = accumulate(p.n for p in pieces)
        return [(range(end - p.n, end), p.rows) for end, p in zip(ends, pieces)]

    yield from _radii((g, layout(pieces)) for g, pieces in unions)


def _components(g: Graph) -> _Pieces:
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    out = []
    for comp in g.components():
        if comp[-1] - comp[0] + 1 == len(comp):  # a run of vertices: relabelling is a shift
            out.append((comp, tuple(g.rows[v] >> comp[0] for v in comp)))
            continue
        pos = {v: i for i, v in enumerate(comp)}
        out.append((comp, tuple(sum(1 << pos[u] for u in _bits(g.rows[v])) for v in comp)))
    return out


def _radii(items: Iterable[tuple[Graph, _Pieces]]) -> Iterator[tuple[Graph, Radius]]:
    it = iter(items)
    while block := list(islice(it, STREAM_BLOCK)):
        yield from zip((g for g, _ in block), _solve_block(block))


def _solve_block(block: list[tuple[Graph, _Pieces]]) -> list[Radius]:
    """The Radius of each graph of a block, from one solve per distinct
    piece."""
    by_order: dict[int, dict[tuple[int, ...], None]] = {}  # distinct keys, in first-seen order
    for _, pieces in block:
        for _, key in pieces:
            if len(key) > 1:
                by_order.setdefault(len(key), {})[key] = None
    solved = {}  # key -> (mu, Perron vector, residual)
    for k, same in by_order.items():
        # each key's rows as 0/1 matrix rows: bit j of row i is entry (i, j)
        nbytes = (k + 7) // 8
        raw = b"".join(row.to_bytes(nbytes, "little") for key in same for row in key)
        rows = np.frombuffer(raw, np.uint8).reshape(len(same), k, nbytes)
        mus, vecs, res = _top_pairs(np.unpackbits(rows, axis=2, count=k, bitorder="little"))
        for b, key in enumerate(same):
            # the Perron vector of a connected component has one sign
            solved[key] = (float(mus[b]), np.abs(vecs[b]), float(res[b]))
    out = []
    for g, pieces in block:
        best_mu, best, residual, solves = -1.0, None, 0.0, 0
        for verts, key in pieces:
            mu, vec, r = solved[key] if len(key) > 1 else (0.0, None, 0.0)
            residual = max(residual, r)
            solves += len(key) > 1
            if mu > best_mu:
                best_mu, best = mu, (verts, vec)
        out.append(Radius(best_mu, residual, solves, partial(_perron, g.n, *best)))
    return out


def _perron(n: int, verts: Sequence[int], vec: np.ndarray | None) -> np.ndarray:
    full = np.zeros(n)
    full[verts] = 1.0 if vec is None else vec  # None for K_1
    return full / np.linalg.norm(full)


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each real symmetric matrix of a (B, n, n)
    stack, held to the residual of `_top_pairs`."""
    return _top_pairs(stack)[0]


def rayleigh(g: Graph, x: np.ndarray) -> float:
    """2 * sum over edges ij of x_i x_j, for a unit vector x. By the
    Rayleigh principle this never exceeds mu(g)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.n,):
        raise ValueError(f"vector length {x.shape} does not match n={g.n}")
    if abs(float(np.linalg.norm(x)) - 1.0) > 1e-9:
        raise ValueError("x must be a unit vector")
    return 2.0 * sum(x[u] * x[v] for u, v in g.edges())


def snk_cubic(n: int, k: int):
    """Coefficients (1, -1, -(n-1), n-1-2k) of the characteristic factor of
    S_{n,k} and the corresponding callable."""
    coeffs = (1.0, -1.0, -(n - 1.0), n - 1.0 - 2.0 * k)

    def f(x: float) -> float:
        return ((x - 1.0) * x - (n - 1.0)) * x + n - 1.0 - 2.0 * k

    return coeffs, f


def xmin(n: int) -> float:
    """Location of the local minimum of the S_{n,k} cubic; the largest root
    lies to its right, where the cubic is increasing."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 1.0 / 3.0 + math.sqrt(1.0 / 9.0 + (n - 1.0) / 3.0)


def snk_mu(n: int, k: int) -> float:
    """mu(S_{n,k}) as the largest root of x^3 - x^2 - (n-1)x + n-1-2k,
    by bisection on [xmin(n), n]; 0 for S_{1,0} = K_1, whose polynomial x
    has no cubic factor."""
    p = SnkParams(n, k)
    if p.n == 1:
        return 0.0
    _, f = snk_cubic(p.n, p.k)
    lo, hi = xmin(n), float(n)
    if f(lo) >= 0.0:
        # largest root coincides with the local minimum (double root)
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def snk_bound_identity(n: int, k: int) -> tuple[float, float]:
    """Evaluate the cubic at sqrt(n-1+k) two ways: directly, and via the
    algebraic identity k*(sqrt(n-1+k) - 3). The two agree to rounding; the
    sign settles whether mu(S_{n,k}) exceeds sqrt(n-1+k)."""
    p = SnkParams(n, k)
    s = math.sqrt(p.n - 1 + p.k)
    _, f = snk_cubic(p.n, p.k)
    return f(s), p.k * (s - 3.0)


def max_entry_ok(r: SpectralResult, tol: float = 1e-9) -> bool:
    """Perron-vector entries of a graph with edges never exceed 1/sqrt(2)."""
    return float(np.max(r.vec)) <= INV_SQRT2 + tol
