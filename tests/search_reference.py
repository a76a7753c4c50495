"""
Reference move proposer for the tests: the climb's neighbourhood built one
candidate at a time. Every (edge, non-edge) pair goes through the bitrow
C4 test `_c4free_after` and becomes a `Move` with its `_rayleigh_gain`,
then the relocations onto the heaviest vertex follow, and the list is
sorted by predicted gain, stably.

`c4free.search.propose_moves` must give the same candidates, move for
move: the same order, the same removed and added edges and the same
predicted gain, bit for bit. It shares with this reference only `Move`,
`_c4free_after` and `_rayleigh_gain`.

`reference_best_improving` is the climb's scan without orbits: it solves
every candidate of its range, so a climb run with it in place of
`c4free.search._best_improving` must make the same moves.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from c4free import spectral
from c4free.graph import Graph, _bits
from c4free.search import IMPROVE_EPS, Candidates, Edge, Move, SearchState, _c4free_after, _rayleigh_gain


def reference_moves(g: Graph, x: np.ndarray) -> List[Move]:
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


def reference_best_improving(state: SearchState, cands: Candidates, lo: int, hi: int) -> Optional[int]:
    """The index in lo..hi-1 of the candidate of largest mu above
    state.mu + IMPROVE_EPS, the earlier one on a tie, with every candidate
    of the range solved."""
    best, best_mu = None, state.mu
    for start in range(lo, hi, spectral.RADII_CHUNK):
        idx = np.arange(start, min(start + spectral.RADII_CHUNK, hi))
        for i, mu in zip(idx.tolist(), spectral.spectral_radii(cands.stack(idx)).tolist()):
            if mu > best_mu + IMPROVE_EPS:
                best, best_mu = i, mu
    return best
