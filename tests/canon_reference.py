"""
Reference canonizer for the tests: the search of `c4free.canon` without
its shortcuts. Every target cell branches on each of its vertices (orbit
pruning only), and every refinement starts from the full queue of cells.
The package's canonizer must give the same bytes and the same labeling.

Standalone on purpose: it reads only `g.n` and `g.rows`. Its one change
to the package's search as it stood before those shortcuts is speed
alone: each generator keeps the mask of its fixed points, so the
generators fixing the path are found by one mask test instead of a loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def reference_canon(g) -> Tuple[bytes, Tuple[int, ...]]:
    """The canonical form of g and the labeling realizing it, from one
    search."""
    c = _Canonizer(g)
    form = c.run()
    perm = [0] * g.n
    for pos, v in enumerate(c.best_leaf):
        perm[v] = pos
    return form, tuple(perm)


def _mask(cell: List[int]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


class _Canonizer:
    def __init__(self, g) -> None:
        self.n = g.n
        self.rows = g.rows
        self.best_bits: Optional[int] = None
        self.best_leaf: Tuple[int, ...] = ()
        self.gens: List[Tuple[Tuple[int, ...], int]] = []  # (automorphism, mask of its fixed points)

    def run(self) -> bytes:
        n = self.n
        if n == 0:
            return b"\x00\x00"
        self._search(self._refine([list(range(n))]), [])
        nbits = n * (n - 1) // 2
        return n.to_bytes(2, "big") + self.best_bits.to_bytes((nbits + 7) // 8 or 1, "big")

    def _refine(self, partition: List[List[int]]) -> List[List[int]]:
        rows = self.rows
        work = list(partition)
        queue = [_mask(c) for c in partition]
        while queue:
            splitter = queue.pop()
            newpart: List[List[int]] = []
            for cell in work:
                if len(cell) == 1:
                    newpart.append(cell)
                    continue
                buckets: dict[int, List[int]] = {}
                for v in cell:
                    buckets.setdefault((rows[v] & splitter).bit_count(), []).append(v)
                if len(buckets) == 1:
                    newpart.append(cell)
                    continue
                for key in sorted(buckets, reverse=True):
                    sub = buckets[key]
                    newpart.append(sub)
                    queue.append(_mask(sub))
            work = newpart
        return work

    def _leaf_bits(self, perm: List[int]) -> int:
        rows = self.rows
        bits = 0
        for i in range(self.n):
            ri = rows[perm[i]]
            for j in range(i + 1, self.n):
                bits = bits << 1 | (ri >> perm[j] & 1)
        return bits

    def _search(self, partition: List[List[int]], fixed: List[int]) -> None:
        target = next((i for i, c in enumerate(partition) if len(c) > 1), None)
        if target is None:
            perm = [c[0] for c in partition]
            bits = self._leaf_bits(perm)
            if self.best_bits is None or bits > self.best_bits:
                self.best_bits = bits
                self.best_leaf = tuple(perm)
            elif bits == self.best_bits:
                auto = [0] * self.n
                for a, b in zip(self.best_leaf, perm):
                    auto[a] = b
                self.gens.append((tuple(auto), _mask([x for x in range(self.n) if auto[x] == x])))
            return
        cell = partition[target]
        tried: List[int] = []
        for v in cell:
            if self._in_orbit_of_tried(v, tried, fixed):
                continue
            tried.append(v)
            child = partition[:target] + [[v], [w for w in cell if w != v]] + partition[target + 1:]
            self._search(self._refine(child), fixed + [v])

    def _in_orbit_of_tried(self, v: int, tried: List[int], fixed: List[int]) -> bool:
        if not tried or not self.gens:
            return False
        path = _mask(fixed)
        gens = [p for p, fix in self.gens if path & ~fix == 0]
        if not gens:
            return False
        orbit = {v}
        frontier = [v]
        while frontier:
            x = frontier.pop()
            for p in gens:
                y = p[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return any(t in orbit for t in tried)
