"""
Reference eigensolver: shifted power iteration on a dense adjacency matrix.

The program does not call it. `spectral.spectral_radius` solves each
component with numpy.linalg.eigh, whose LAPACK routine numpy.linalg.eigvalsh
shares, so an eigvalsh oracle is not independent of the code under test. The
tests compare spectral_radius against this loop instead: plain matrix-vector
products, no LAPACK.
"""

from __future__ import annotations

import numpy as np


def power_iteration(a: np.ndarray, tol: float, max_iter: int):
    """Power iteration on A + I (shift kills the +/- degeneracy of bipartite
    spectra). Returns (mu, unit vector, residual, iterations, converged).

    The start vector is all-ones: positive, hence never orthogonal to the
    Perron vector of a connected graph.
    """
    n = a.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    mu = 0.0
    res = 0.0
    it = 0
    while it < max_iter:
        it += 1
        av = a @ v
        mu = float(v @ av)
        res = float(np.max(np.abs(av - mu * v)))
        if res <= tol:
            return mu, v, res, it, True
        w = av + v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0, v, 0.0, it, True
        v = w / nw
    return mu, v, res, it, False
