"""
Enumeration is checked against an independent oracle built from the
networkx graph atlas (every graph up to order 7): by-order counts come
straight from the atlas, by-edges counts from multisets of connected
atlas graphs (a graph with m <= 6 edges and minimum degree 1 has
components with at most 7 vertices each).

Beyond the atlas, by-order classes are checked by orbit counting: a class
G on n vertices has n!/|Aut G| labelled copies, so these sum over the
classes to the number of labelled graphs, which a vertex-by-vertex search
counts without c4free. The same count split by edge count checks the
by-edges classes on at most 7 vertices, disjoint unions included: a class
on n_G vertices has 7!/(|Aut G| (7 - n_G)!) labelled copies on 7.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import combinations, islice
from math import factorial
from typing import Tuple

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher
from networkx.generators.atlas import graph_atlas_g

from c4free import enumeration, graph6
from c4free.canon import canonical_form
from c4free.enumeration import (
    MAX_EDGES,
    MAX_ORDER,
    CapExceeded,
    _beaten_in,
    _canonical_edge,
    _check_request,
    _classes,
    _extend_by_edges,
    _extend_fixed_order,
    _keeps,
    _on_cycle,
    _tied_edges,
    enumerate_c4free_by_edges,
    enumerate_c4free_by_order,
    enumerate_kfree_by_order,
)
from c4free.graph import Graph
from conftest import random_connected_graph, walk_from_k1
from enumeration_reference import reference_extend_by_edges, reference_extend_fixed_order, reference_levels


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


@cache
def labelled_counts(n: int, k: int) -> Tuple[int, ...]:
    """Entry e: the labelled K_{2,k+1}-free graphs on vertices 0..n-1 with
    e edges. Vertices are added in turn, each with every neighbourhood
    among the earlier vertices that creates no K_{2,k+1}: a pair inside the
    neighbourhood gains the new vertex as a common neighbour, and an
    earlier vertex x has the members of the neighbourhood adjacent to x in
    common with the new vertex."""
    counts = [0] * (n * (n - 1) // 2 + 1)

    def extend(rows, edges, chosen=0, start=0, fits=None):
        # completions of rows, which have edges edges, to n vertices in
        # which vertex v = len(rows) has neighbourhood chosen plus some
        # vertices >= start
        v = len(rows)
        if fits is None:
            # fits[a]: the b < v whose common neighbours with a number < k
            fits = [sum(1 << b for b in range(v) if (rows[a] & rows[b]).bit_count() < k) for a in range(v)]
        if v + 1 == n:
            counts[edges + chosen.bit_count()] += 1
        else:
            grown_rows = tuple(r | (chosen >> i & 1) << v for i, r in enumerate(rows)) + (chosen,)
            extend(grown_rows, edges + chosen.bit_count())
        for a in range(start, v):
            grown = chosen | 1 << a
            if chosen & ~fits[a] == 0 and all(
                (grown & rows[x]).bit_count() <= k for x in range(v) if rows[a] >> x & 1
            ):
                extend(rows, edges, grown, a + 1, fits)

    if n:
        extend((), 0)
    else:
        counts[0] = 1
    return tuple(counts)


def labelled_count(n: int, k: int) -> int:
    """Labelled K_{2,k+1}-free graphs on vertices 0..n-1."""
    return sum(labelled_counts(n, k))


def orbit_sum(graphs, n: int) -> int:
    """Sum over the classes of their labelled copies on n vertices,
    n!/(|Aut G| (n - n_G)!) for a class G on n_G <= n vertices padded with
    isolated vertices; automorphisms counted by VF2."""
    total = 0
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        aut = sum(1 for _ in GraphMatcher(G, G).isomorphisms_iter())
        total += factorial(n) // (aut * factorial(n - g.n))
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

    @pytest.mark.parametrize("m", range(1, 10))
    def test_stream_contract(self, m):
        seen = set()
        for g in enumerate_c4free_by_edges(m):
            assert g.m == m
            assert not g.has_c4()
            assert all(g.degree(u) >= 1 for u in range(g.n))
            key = canonical_form(g)
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_orbit_count(self, m):
        # ex(7, C4) = 9: these m cover every edge count on 7 vertices
        counts = labelled_counts(7, 1)
        assert not any(counts[10:])
        small = (g for g in enumerate_c4free_by_edges(m) if g.n <= 7)
        assert orbit_sum(small, 7) == counts[m]

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
        _check_request("by-order", 11, MAX_ORDER, 1, 1, True)
        with pytest.raises(CapExceeded):
            _check_request("by-order", 11, MAX_ORDER, 1, 1, False)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orbit_count(self, n):
        assert orbit_sum(enumerate_c4free_by_order(n), n) == labelled_count(n, 1) == LABELLED_C4FREE[n - 1]


_STREAMS = {
    "by-edges": lambda size, k, workers: enumerate_c4free_by_edges(size, workers),
    "by-order": lambda size, k, workers: enumerate_kfree_by_order(size, k, workers),
}


@pytest.mark.parametrize(
    "what, size, k, workers, message",
    [
        ("by-edges", 0, 1, 0, "size must be >= 1"),
        ("by-edges", 17, 1, 0, "need workers >= 1"),
        ("by-edges", 17, 1, 1, "by-edges size 17 exceeds cap 16; pass cap_override (CLI: --force) to proceed"),
        ("by-order", 0, 0, 0, "size must be >= 1"),
        ("by-order", 11, 0, 0, "k must be >= 1"),
        ("by-order", 11, 1, 0, "need workers >= 1"),
        ("by-order", 11, 1, 1, "by-order size 11 exceeds cap 10; pass cap_override (CLI: --force) to proceed"),
    ],
)
def test_stream_refusals(what, size, k, workers, message):
    # each request fails its check and every later one, so the message also
    # pins the order of the checks: size, k, workers, then the cap
    with pytest.raises(ValueError) as err:
        next(_STREAMS[what](size, k, workers))
    assert str(err.value) == message
    assert isinstance(err.value, CapExceeded) == message.endswith("to proceed")


def test_by_edges_k_refused_before_workers_and_cap():
    # the by-edges stream always asks for k = 1, so its k check is reached
    # only here
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        _check_request("by-edges", MAX_EDGES + 1, MAX_EDGES, 0, 0, False)


def _first_child_per_class(g, k, max_n, autos):
    """Canonical form -> the first child of g in that class, with its added
    edge."""
    first = {}
    beaten = _beaten_in(g)
    for child, f in _extend_fixed_order(g, k, autos, beaten) + _extend_by_edges(g, max_n, autos, beaten):
        assert child.remove_edge(*f).rows[: g.n] == g.rows
        first.setdefault(canonical_form(child), (child, f))
    return first


@pytest.mark.parametrize(
    "k, max_n, max_m",
    [(1, 10, 8), (1, 7, 21), (2, 6, 15)],
    ids=["by-edges-m9", "by-order-n7", "k2-by-order-n6"],
)
def test_orbit_pruning_keeps_every_class(k, max_n, max_m):
    # the parents of enumerate --m 9 (the nodes of at most 8 edges), of
    # --n 7, and of K_{2,3}-free --n 6: extending by one edge per orbit of
    # the automorphisms the canonizer proved gives every class the full
    # extension gives, with the same first child
    parents = 0
    for _, g, autos in walk_from_k1(k, max_n, max_m):
        parents += 1
        pruned = _first_child_per_class(g, k, max_n, autos)
        assert pruned == _first_child_per_class(g, k, max_n, ())
    assert parents > 50


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "k, max_n, max_m",
    [(1, 11, 10), (1, 8, 28), (2, 7, 21)],
    ids=["by-edges-m10", "by-order-n8", "k2-by-order-n7"],
)
def test_levels_match_reference(k, max_n, max_m, workers):
    # the canonical-parent test keeps the classes that canonizing every
    # child keeps, grouped by edge count; each class is met once, so a
    # class kept from two parents shows as a repeated form
    ours = defaultdict(list)
    for form, g in _classes(k, max_n, max_m, workers):
        ours[g.m].append(form)
    reference = islice(reference_levels(k, max_n), max_m + 1)
    assert [sorted(ours[j]) for j in sorted(ours)] == [sorted(level) for level in reference]


def test_keeps_the_same_children_without_automorphisms():
    # judged with no automorphisms, a child whose added edge is not its
    # canonical edge cannot pass by the orbit shortcut and is judged by
    # canonizing child minus that edge: the verdicts must not change.
    # Enumeration never reaches that branch at these sizes, so this is
    # where it is tested.
    by_deletion = 0
    for parent_form, g, autos in walk_from_k1(1, 10, 8):  # the parents of enumerate --m 9
        beaten = _beaten_in(g)
        for child, f in _extend_fixed_order(g, 1, autos, beaten) + _extend_by_edges(g, 10, autos, beaten):
            tied = _tied_edges(child, f)
            if tied is None:
                continue
            found, leaf = [], []
            canonical_form(child, found, leaf)
            keeps = _keeps(child, f, tied, leaf, tuple(found), parent_form)
            assert _keeps(child, f, tied, leaf, (), parent_form) == keeps
            by_deletion += keeps and len(tied) > 1 and _canonical_edge(tied, leaf) != f
    assert by_deletion == 312


@pytest.mark.parametrize(
    "k, max_n, max_m, dropped",
    [(1, 11, 9, 4208), (1, 8, 28, 658), (2, 7, 21, 916)],
    ids=["by-edges-m10", "by-order-n8", "k2-by-order-n7"],
)
def test_prefilter_drops_only_children_the_invariant_drops(k, max_n, max_m, dropped):
    # for every parent of enumerate --m 10, of --n 8 and of K_{2,3}-free
    # --n 7: the extensions are the unfiltered ones in the same order, less
    # some children, each of which _tied_edges would drop
    dropped_here = 0
    for _, g, autos in walk_from_k1(k, max_n, max_m):
        beaten = _beaten_in(g)
        ours = _extend_fixed_order(g, k, autos, beaten) + _extend_by_edges(g, max_n, autos, beaten)
        full = reference_extend_fixed_order(g, k, autos) + reference_extend_by_edges(g, max_n, autos)
        kept = iter(ours)
        nxt = next(kept, None)
        for child, f in full:
            if nxt is not None and (child, f) == nxt:
                nxt = next(kept, None)
            else:
                assert _tied_edges(child, f) is None, (g, f)
                dropped_here += 1
        assert nxt is None  # every child made is an unfiltered child, in order
    assert dropped_here == dropped


@pytest.mark.parametrize(
    "stream",
    [
        lambda **kw: enumerate_c4free_by_edges(9, **kw),
        lambda **kw: enumerate_c4free_by_order(7, **kw),
        lambda **kw: enumerate_kfree_by_order(6, 2, **kw),
    ],
    ids=["by-edges-m9", "by-order-n7", "k2-by-order-n6"],
)
def test_unions_with_their_pieces(stream):
    # the same graphs in the same order; each union is its connected pieces
    # laid out one after the other, the first on the first vertices
    pairs = list(stream(with_pieces=True))
    assert [g for g, _ in pairs] == list(stream())
    assert any(len(pieces) > 1 for _, pieces in pairs)
    for g, pieces in pairs:
        rows = ()
        for p in pieces:
            assert p.is_connected()
            rows += tuple(r << len(rows) for r in p.rows)
        assert rows == g.rows


def test_class_from_two_parents_raises(monkeypatch):
    # with every child kept, a class whose tied deletable edges lie in two
    # orbits comes from two parents; the first has 8 edges, a tree whose
    # two tied pendant edges hang on the two ends of one edge. The stream
    # sorts its pieces and finds the form twice
    monkeypatch.setattr(enumeration, "_keeps", lambda *args: True)
    with pytest.raises(RuntimeError, match="two parents"):
        next(enumerate_c4free_by_edges(8))


def test_deletable_edges_are_the_pendant_and_cycle_edges(rng):
    # _on_cycle against networkx's bridges, on random connected graphs
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 6))
        G = nx.Graph(list(g.edges()))
        bridges = {tuple(sorted(e)) for e in nx.bridges(G)}
        for a, b in g.edges():
            assert _on_cycle(g.rows, a, b) == ((a, b) not in bridges)


def test_workers_below_one_rejected():
    for stream in (enumerate_c4free_by_edges(3, workers=0), enumerate_kfree_by_order(3, 2, workers=-1)):
        with pytest.raises(ValueError, match="need workers >= 1"):
            next(stream)


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
