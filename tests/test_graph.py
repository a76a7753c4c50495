from __future__ import annotations

import random

import pytest

from c4free.graph import (
    Graph,
    GraphError,
    SnkParams,
    adding_edge_creates_c4,
    adding_edge_creates_k2kp1,
    make_friendship,
    make_snk,
    make_star,
)
from conftest import random_graph


def check_invariants(g: Graph) -> None:
    for i in range(g.n):
        assert not g.rows[i] >> i & 1
        for j in range(g.n):
            assert (g.rows[i] >> j & 1) == (g.rows[j] >> i & 1)
    assert g.m == sum(r.bit_count() for r in g.rows) // 2


class TestConstructors:
    def test_star_trivial(self):
        g = make_star(1)
        assert g.n == 1 and g.m == 0

    def test_star_k19(self):
        g = make_star(10)
        assert g.m == 9
        assert g.degree(0) == 9
        assert not g.has_c4()
        check_invariants(g)

    def test_star_is_tree(self):
        assert make_star(4).m == 3
        assert not make_star(4).has_c4()

    def test_snk_paw(self):
        g = make_snk(4, 1)
        assert g.m == 4
        assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2)]

    def test_snk_91(self):
        assert make_snk(9, 1).m == 9

    def test_snk_bowtie_is_friendship(self):
        from c4free.canon import canonical_form

        assert make_snk(5, 2).m == 6
        assert canonical_form(make_snk(5, 2)) == canonical_form(make_friendship(2))

    def test_snk_rejects_large_k(self):
        with pytest.raises(GraphError):
            make_snk(4, 2)
        with pytest.raises(GraphError):
            SnkParams(9, 5)

    def test_friendship(self):
        assert make_friendship(1).m == 3
        g = make_friendship(3)
        assert g.n == 7 and g.m == 9

    @pytest.mark.parametrize("k", range(1, 8))
    def test_friendship_c4free(self, k):
        assert not make_friendship(k).has_c4()

    @pytest.mark.parametrize("n,k", [(5, 1), (7, 2), (10, 4), (21, 10)])
    def test_snk_c4free(self, n, k):
        g = make_snk(n, k)
        assert not g.has_c4()
        check_invariants(g)


class TestPredicates:
    def test_common_neighbors_k3(self):
        k3 = make_friendship(1)
        assert k3.common_neighbors(0, 1) == 1

    def test_common_neighbors_c4(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert c4.common_neighbors(0, 2) == 2
        assert c4.has_c4()

    def test_common_neighbors_matched_leaves(self):
        g = make_snk(9, 1)
        assert g.common_neighbors(1, 2) == 1

    def test_common_neighbors_rejects_equal(self):
        with pytest.raises(GraphError):
            make_star(3).common_neighbors(1, 1)

    def test_tree_c4free(self):
        path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert not path.has_c4()

    def test_k23_contains_k23(self):
        k23 = Graph.from_edges(5, [(i, j) for i in (0, 1) for j in (2, 3, 4)])
        assert k23.has_k2kp1(2)
        assert k23.has_c4()

    def test_friendship_k2k1_free(self):
        assert not make_friendship(5).has_k2kp1(2)

    def test_k2kp1_at_1_is_c4(self, rng):
        for _ in range(1000):
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.1, 0.7))
            assert g.has_k2kp1(1) == g.has_c4()


class TestMutation:
    def test_remove_edge_k3(self):
        p3 = make_friendship(1).remove_edge(0, 1)
        assert p3.m == 2
        assert sorted(p3.degree(u) for u in range(3)) == [1, 1, 2]

    def test_add_existing_raises(self):
        with pytest.raises(GraphError):
            make_star(3).add_edge(0, 1)

    def test_remove_absent_raises(self):
        with pytest.raises(GraphError):
            make_star(3).remove_edge(1, 2)

    @pytest.mark.parametrize("u, v", [(0, 3), (3, 0), (-1, 1), (1, -1), (0, 9)])
    def test_edge_out_of_range_raises(self, u, v):
        # a negative index would otherwise wrap to the last row
        with pytest.raises(GraphError, match="out of range"):
            make_star(3).add_edge(u, v)
        with pytest.raises(GraphError, match="out of range"):
            make_star(3).remove_edge(u, v)

    def test_relabel(self):
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        assert sorted(g.relabel((2, 0, 1)).edges()) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("perm", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 3), (0, -1, 2)])
    def test_relabel_refuses_a_map_that_is_not_a_permutation(self, perm):
        # (0, 0, 1) would merge two vertices and drop an edge; a short map
        # would fail on an index
        with pytest.raises(GraphError, match="permutation"):
            Graph.from_edges(3, [(0, 2), (1, 2)]).relabel(perm)

    def test_strip_isolated(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])
        h = g.strip_isolated()
        assert h.n == 3 and h.m == 3

    def test_components(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert len(g.components()) == 2

    def test_mutation_preserves_invariants(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 10))
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            if u == v:
                continue
            g2 = g.remove_edge(u, v) if g.has_edge(u, v) else g.add_edge(u, v)
            check_invariants(g2)
            # the edits build their result unchecked; the checked constructor agrees
            assert Graph(g2.n, g2.rows) == g2


class TestC4EdgePredicate:
    def test_closing_chord(self):
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert adding_edge_creates_c4(p4, 0, 3)
        assert not adding_edge_creates_c4(p4, 0, 2)

    def test_matches_global_check(self, rng):
        for k in (1, 2, 3):
            for _ in range(500):
                g = random_graph(rng, rng.randint(2, 9))
                if g.has_k2kp1(k):
                    continue
                u, v = rng.randrange(g.n), rng.randrange(g.n)
                if u == v or g.has_edge(u, v):
                    continue
                creates = g.add_edge(u, v).has_k2kp1(k)
                assert adding_edge_creates_k2kp1(g, u, v, k) == creates
                if k == 1:
                    assert adding_edge_creates_c4(g, u, v) == creates
