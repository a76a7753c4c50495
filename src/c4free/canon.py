"""
Canonical forms for isomorphism rejection.

Refinement-based individualization search: equitable-refine an ordered
partition, branch on the first non-singleton cell, and keep the labeling
whose upper-triangle adjacency bitstring is lexicographically greatest.
Automorphisms discovered at equal leaves prune sibling branches (only
generators fixing the current individualization path are used, so the
pruning is sound).

Two shortcuts leave every byte of output as the full search makes it:

- A target cell of twins (equal neighbourhoods, apart from each other:
  all equal rows, or all equal closed rows) branches on its first vertex
  only. Swapping two twins is an automorphism fixing every other vertex,
  so each skipped subtree is an image of the first, and the first maximal
  leaf in full search order lies in the first subtree.
- A child is refined from its two new cells only, ``rest`` popped before
  ``{v}``. Its other cells are cells of the equitable parent and can split
  nothing, so their pops in the full queue were no-ops.

The resulting byte string is identical for isomorphic graphs and distinct
otherwise.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .graph import Graph


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant byte string for g."""
    return _Canonizer(g).run()


def canonical_labeling(g: Graph) -> Tuple[int, ...]:
    """A permutation p (vertex -> canonical label) realizing canonical_form:
    g.relabel(p) has the canonical adjacency."""
    c = _Canonizer(g)
    c.run()
    perm = [0] * g.n
    for pos, v in enumerate(c.best_leaf):
        perm[v] = pos
    return tuple(perm)


class _Canonizer:
    def __init__(self, g: Graph) -> None:
        self.g = g
        self.n = g.n
        self.rows = g.rows
        self.best_bits: Optional[int] = None
        self.best_leaf: Tuple[int, ...] = ()
        self.gens: List[Tuple[int, ...]] = []

    def run(self) -> bytes:
        n = self.n
        if n == 0:
            return b"\x00\x00"
        self._search(self._refine([list(range(n))]), [])
        nbits = n * (n - 1) // 2
        assert self.best_bits is not None
        return n.to_bytes(2, "big") + self.best_bits.to_bytes((nbits + 7) // 8 or 1, "big")

    def _refine(self, partition: List[List[int]], queue: Optional[List[int]] = None) -> List[List[int]]:
        """Equitable refinement of an ordered partition. Splitting is by
        neighbor counts into a splitter cell, subcells ordered by
        descending count; the outcome depends only on the ordered-partition
        structure, so it is label-invariant.

        queue is the stack of splitter masks, popped from the end; by
        default every cell of partition. A caller may pass fewer only when
        the cells left out cannot split anything."""
        rows = self.rows
        work = list(partition)
        if queue is None:
            queue = [self._mask(c) for c in partition]
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
                    queue.append(self._mask(sub))
            work = newpart
        return work

    @staticmethod
    def _mask(cell: List[int]) -> int:
        m = 0
        for v in cell:
            m |= 1 << v
        return m

    def _leaf_bits(self, perm: List[int]) -> int:
        # position i takes vertex perm[i]; pack upper triangle row-major
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
                self.gens.append(tuple(auto))
            return
        cell = partition[target]
        rows = self.rows
        # twins: every branch but the first is an automorphic image of it
        twins = len({rows[w] for w in cell}) == 1 or len({rows[w] | 1 << w for w in cell}) == 1
        tried: List[int] = []
        for v in cell[:1] if twins else cell:
            if self._in_orbit_of_tried(v, tried, fixed):
                continue
            tried.append(v)
            rest = [w for w in cell if w != v]
            child = partition[:target] + [[v], rest] + partition[target + 1:]
            self._search(self._refine(child, [1 << v, self._mask(rest)]), fixed + [v])

    def _in_orbit_of_tried(self, v: int, tried: List[int], fixed: List[int]) -> bool:
        if not tried or not self.gens:
            return False
        gens = [p for p in self.gens if all(p[f] == f for f in fixed)]
        if not gens:
            return False
        # orbit of v under the path-stabilizing generators
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
