"""
Canonical forms for isomorphism rejection.

Refinement-based individualization search: equitable-refine an ordered
partition, branch on the first non-singleton cell, and keep the labeling
whose upper-triangle adjacency bitstring is lexicographically greatest.
Automorphisms discovered at equal leaves prune sibling branches (only
generators fixing the current individualization path are used, so the
pruning is sound).

A cell is an int bitmask of its vertices. Cells were always kept in
ascending vertex order, so a mask holds the same information and the
leaves, their order and the bytes are those of a search on vertex lists.
The refiner makes one pass over the partition per splitter and stops once
the partition is discrete; a singleton splitter {s} splits a cell into its
vertices in N(s) and the rest.

Two shortcuts leave every byte of output as the full search makes it:

- A target cell of twins (equal neighbourhoods, apart from each other:
  all equal rows, or all equal closed rows) branches on its first vertex
  only. Swapping two twins is an automorphism fixing every other vertex,
  so each skipped subtree is an image of the first, and the first maximal
  leaf in full search order lies in the first subtree.
- A child is refined from its two new cells only, ``rest`` popped before
  ``{v}``. Its other cells are cells of the equitable parent and can split
  nothing, so their pops in the full queue were no-ops.

The search proves automorphisms on the way: one per leaf equal to the
best, and the swap of the first vertex of each skipped twin cell with each
other vertex of it. canonical_form hands them to a caller that asks; they
generate a subgroup of Aut(g), not always all of it. The transpositions
among them are cut to a spanning forest of the pairs they swap, n - 1 at
most, which generates the same group. The twin swaps take no part in the
orbit pruning, so the search visits what it visited without them.

The resulting byte string is identical for isomorphic graphs and distinct
otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .graph import Graph, _bits

Automorphism = Tuple[int, ...]  # vertex v goes to p[v]


def canonical_form(
    g: Graph, automorphisms: Optional[List[Automorphism]] = None, leaf: Optional[List[int]] = None
) -> bytes:
    """Isomorphism-invariant byte string for g. If automorphisms is a
    list, the automorphisms of g that the search proved are appended to
    it (see the module docstring). If leaf is a list, the best leaf is
    appended to it: vertex leaf[i] takes position i of the canonical
    adjacency."""
    c = _Canonizer(g)
    form = c.run()
    if automorphisms is not None:
        automorphisms.extend(c.automorphisms())
    if leaf is not None:
        leaf.extend(c.best_leaf)
    return form


def canonical_labeling(g: Graph) -> Tuple[int, ...]:
    """A permutation p (vertex -> canonical label) realizing canonical_form:
    g.relabel(p) has the canonical adjacency."""
    leaf: List[int] = []
    canonical_form(g, leaf=leaf)
    perm = [0] * g.n
    for pos, v in enumerate(leaf):
        perm[v] = pos
    return tuple(perm)


class _Canonizer:
    def __init__(self, g: Graph) -> None:
        self.n = g.n
        self.rows = g.rows
        self.best_bits: Optional[int] = None
        self.best_leaf: Tuple[int, ...] = ()
        self.gens: List[Automorphism] = []
        self.twin_swaps: Dict[Tuple[int, int], None] = {}  # ordered set of swapped twin pairs

    def run(self) -> bytes:
        n = self.n
        if n == 0:
            return b"\x00\x00"
        self._search(self._refine([(1 << n) - 1]), [])
        nbits = n * (n - 1) // 2
        assert self.best_bits is not None
        return n.to_bytes(2, "big") + self.best_bits.to_bytes((nbits + 7) // 8 or 1, "big")

    def automorphisms(self) -> List[Automorphism]:
        """The leaf generators that are not transpositions, then the
        transpositions that join two trees of a forest over the vertices:
        the leaf generators that are one, then the twin swaps. The
        transpositions of a spanning forest generate the symmetric group on
        each tree, as all of them do, so the group is the same."""
        n = self.n
        out: List[Automorphism] = []
        swaps: List[Tuple[int, int]] = []
        for p in self.gens:
            moved = [v for v, w in enumerate(p) if v != w]
            if len(moved) == 2:
                swaps.append((moved[0], moved[1]))
            else:
                out.append(p)
        root = list(range(n))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = v = root[root[v]]
            return v

        for a, b in swaps + list(self.twin_swaps):
            ra, rb = find(a), find(b)
            if ra != rb:
                root[ra] = rb
                swap = list(range(n))
                swap[a], swap[b] = b, a
                out.append(tuple(swap))
        return out

    def _refine(self, partition: List[int], queue: Optional[List[int]] = None) -> List[int]:
        """Equitable refinement of an ordered partition of cell masks.
        Splitting is by neighbor counts into a splitter cell, subcells
        ordered by descending count; the outcome depends only on the
        ordered-partition structure, so it is label-invariant.

        queue is the stack of splitter masks, popped from the end; by
        default every cell of partition. A caller may pass fewer only when
        the cells left out cannot split anything."""
        rows = self.rows
        if queue is None:
            queue = list(partition)
        while queue and len(partition) < self.n:
            splitter = queue.pop()
            single = not splitter & (splitter - 1)
            if single:
                reach = rows[splitter.bit_length() - 1]
            out: List[int] = []
            for cell in partition:
                if not cell & (cell - 1):
                    out.append(cell)
                    continue
                if single:
                    hit = cell & reach
                    if not hit or hit == cell:
                        out.append(cell)
                        continue
                    subs = [hit, cell ^ hit]
                else:
                    buckets: Dict[int, int] = {}
                    todo = cell
                    while todo:
                        low = todo & -todo
                        key = (rows[low.bit_length() - 1] & splitter).bit_count()
                        buckets[key] = buckets.get(key, 0) | low
                        todo ^= low
                    if len(buckets) == 1:
                        out.append(cell)
                        continue
                    subs = [buckets[key] for key in sorted(buckets, reverse=True)]
                out += subs
                queue += subs
            partition = out
        return partition

    def _leaf_bits(self, perm: List[int]) -> int:
        # position i takes vertex perm[i]; pack upper triangle row-major
        rows = self.rows
        bits = 0
        for i in range(self.n):
            ri = rows[perm[i]]
            for j in range(i + 1, self.n):
                bits = bits << 1 | (ri >> perm[j] & 1)
        return bits

    def _search(self, partition: List[int], fixed: List[int]) -> None:
        target = next((i for i, c in enumerate(partition) if c & (c - 1)), None)
        if target is None:
            perm = [c.bit_length() - 1 for c in partition]
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
        cell_vertices = list(_bits(cell))
        rows = self.rows
        # twins: every branch but the first is an automorphic image of it
        twins = len({rows[w] for w in cell_vertices}) == 1 or len({rows[w] | 1 << w for w in cell_vertices}) == 1
        if twins:
            first = cell_vertices[0]
            for w in cell_vertices[1:]:
                self.twin_swaps[first, w] = None
            cell_vertices = cell_vertices[:1]
        tried: List[int] = []
        for v in cell_vertices:
            if self._in_orbit_of_tried(v, tried, fixed):
                continue
            tried.append(v)
            rest = cell ^ 1 << v
            child = partition[:target] + [1 << v, rest] + partition[target + 1:]
            self._search(self._refine(child, [1 << v, rest]), fixed + [v])

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
