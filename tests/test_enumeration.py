"""
Enumeration is checked against an independent oracle built from the
networkx graph atlas (every graph up to order 7): by-order counts come
straight from the atlas, by-edges counts from multisets of connected
atlas graphs (a graph with m <= 6 edges and minimum degree 1 has
components with at most 7 vertices each).

Beyond the atlas, by-order classes are checked by orbit counting: a class
G on n vertices has n!/|Aut G| labelled copies, so these sum over the
classes to the number of labelled graphs, which a vertex-by-vertex search
counts without c4free.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher
from networkx.generators.atlas import graph_atlas_g

from c4free import graph6
from c4free.canon import canonical_form
from c4free.enumeration import (
    CapExceeded,
    EnumSpec,
    enumerate_c4free_by_edges,
    enumerate_c4free_by_order,
    enumerate_kfree_by_order,
)
from c4free.graph import Graph


def _atlas_c4free():
    out = []
    for G in graph_atlas_g()[1:]:
        if all(
            len(list(nx.common_neighbors(G, u, v))) < 2
            for u, v in combinations(G.nodes, 2)
        ):
            out.append(G)
    return out


ATLAS_C4FREE = _atlas_c4free()


def oracle_count_by_order(n: int) -> int:
    return sum(1 for G in ATLAS_C4FREE if G.number_of_nodes() == n)


def oracle_count_by_edges(m: int) -> int:
    """Multisets of connected C4-free pieces with >= 1 edge totalling m."""
    pieces = [
        G.number_of_edges()
        for G in ATLAS_C4FREE
        if G.number_of_edges() >= 1 and nx.is_connected(G)
    ]

    def count(start: int, rem: int) -> int:
        if rem == 0:
            return 1
        total = 0
        for i in range(start, len(pieces)):
            if pieces[i] <= rem:
                total += count(i, rem - pieces[i])
        return total

    return count(0, m)


def labelled_count(n: int, k: int) -> int:
    """Labelled K_{2,k+1}-free graphs on vertices 0..n-1. Vertices are added
    in turn, each with every neighbourhood among the earlier vertices that
    creates no K_{2,k+1}: a pair inside the neighbourhood gains the new
    vertex as a common neighbour, and an earlier vertex x has the members
    of the neighbourhood adjacent to x in common with the new vertex."""

    def extend(rows, chosen=0, start=0, fits=None):
        # completions of rows to n vertices in which vertex v = len(rows)
        # has neighbourhood chosen plus some vertices >= start
        v = len(rows)
        if fits is None:
            # fits[a]: the b < v whose common neighbours with a number < k
            fits = [sum(1 << b for b in range(v) if (rows[a] & rows[b]).bit_count() < k) for a in range(v)]
        if v + 1 == n:
            total = 1
        else:
            total = extend(tuple(r | (chosen >> i & 1) << v for i, r in enumerate(rows)) + (chosen,))
        for a in range(start, v):
            grown = chosen | 1 << a
            if chosen & ~fits[a] == 0 and all(
                (grown & rows[x]).bit_count() <= k for x in range(v) if rows[a] >> x & 1
            ):
                total += extend(rows, grown, a + 1, fits)
        return total

    return extend(()) if n else 1


def orbit_sum(graphs, n: int) -> int:
    """Sum of n!/|Aut G| over the classes, automorphisms counted by VF2."""
    total = 0
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        total += factorial(n) // sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter())
    return total


# labelled C4-free graphs on n = 1..8 vertices (OEIS A006855)
LABELLED_C4FREE = [1, 2, 8, 54, 548, 7984, 163440, 4599908]


class TestByEdges:
    def test_m1(self):
        assert [g.m for g in enumerate_c4free_by_edges(1)] == [1]

    def test_m3_classes(self):
        graphs = list(enumerate_c4free_by_edges(3))
        assert len(graphs) == 5
        # {P_4, K_3, K_{1,3}, P_3 + K_2, 3 K_2}
        orders = sorted(g.n for g in graphs)
        assert orders == [3, 4, 4, 5, 6]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_oracle(self, m):
        assert len(list(enumerate_c4free_by_edges(m))) == oracle_count_by_edges(m)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_stream_contract(self, m):
        seen = set()
        for g in enumerate_c4free_by_edges(m):
            assert g.m == m
            assert not g.has_c4()
            assert all(g.degree(u) >= 1 for u in range(g.n))
            key = canonical_form(g)
            assert key not in seen
            seen.add(key)

    def test_determinism(self):
        a = [graph6.encode(g) for g in enumerate_c4free_by_edges(6)]
        b = [graph6.encode(g) for g in enumerate_c4free_by_edges(6)]
        assert a == b

    def test_worker_parity(self):
        serial = sorted(canonical_form(g) for g in enumerate_c4free_by_edges(6))
        parallel = sorted(canonical_form(g) for g in enumerate_c4free_by_edges(6, workers=2))
        assert serial == parallel

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_c4free_by_edges(17))


class TestByOrder:
    def test_n3(self):
        assert len(list(enumerate_c4free_by_order(3))) == 4

    def test_n4(self):
        # 11 classes on 4 vertices minus the three containing a 4-cycle
        # (C4 itself, the diamond, K4)
        assert len(list(enumerate_c4free_by_order(4))) == 8

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_oracle(self, n):
        assert len(list(enumerate_c4free_by_order(n))) == oracle_count_by_order(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_stream_contract(self, n):
        seen = set()
        for g in enumerate_c4free_by_order(n):
            assert g.n == n
            assert not g.has_c4()
            key = canonical_form(g)
            assert key not in seen
            seen.add(key)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_c4free_by_order(11))

    def test_cap_override(self):
        spec = EnumSpec("by-order", 11, cap_override=True)
        spec.validate()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orbit_count(self, n):
        assert orbit_sum(enumerate_c4free_by_order(n), n) == labelled_count(n, 1) == LABELLED_C4FREE[n - 1]


class TestKFree:
    def test_k2_free_universe_n4(self):
        # K_{2,3}-free on 4 vertices: every graph qualifies (needs 5 vertices)
        assert len(list(enumerate_kfree_by_order(4, 2))) == 11

    def test_k2_free_n5(self):
        graphs = list(enumerate_kfree_by_order(5, 2))
        for g in graphs:
            assert not g.has_k2kp1(2)
        oracle = sum(
            1
            for G in graph_atlas_g()[1:]
            if G.number_of_nodes() == 5
            and all(
                len(list(nx.common_neighbors(G, u, v))) < 3
                for u, v in combinations(G.nodes, 2)
            )
        )
        assert len(graphs) == oracle

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orbit_count(self, n):
        labelled = labelled_count(n, 2)
        assert orbit_sum(enumerate_kfree_by_order(n, 2), n) == labelled
        if n == 7:
            assert labelled == 822028
