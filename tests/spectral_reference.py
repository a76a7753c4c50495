"""
Reference solver for the tests: `spectral_radius` as a loop over the
components of one graph, each solved by `_top_pairs` as a stack of one.
The package's stream solver does the same arithmetic per component, so it
must give bit-identical results.
"""

from __future__ import annotations

import numpy as np

from c4free.spectral import SpectralResult, _top_pairs, to_numpy


def reference_spectral_radius(g) -> SpectralResult:
    """Largest adjacency eigenvalue with nonnegative unit eigenvector,
    supported on the first component achieving it."""
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    a = to_numpy(g)
    best_mu = -1.0
    best = None
    residual = 0.0
    solves = 0
    for comp in g.components():
        if len(comp) == 1:
            mu, vec = 0.0, np.ones(1)
        else:
            idx = np.array(comp)
            mus, vecs, res = _top_pairs(a[idx[:, None], idx][None])
            # the Perron vector of a connected component has one sign
            mu, vec = float(mus[0]), np.abs(vecs[0])
            residual = max(residual, float(res[0]))
            solves += 1
        if mu > best_mu:
            best_mu = mu
            best = (vec, comp)
    vec, comp = best
    full = np.zeros(g.n)
    full[comp] = vec
    full /= np.linalg.norm(full)
    return SpectralResult(mu=best_mu, vec=full, residual=residual, iters=solves)
