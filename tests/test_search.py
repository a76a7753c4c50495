from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest

from c4free import graph6, search, spectral
from c4free.canon import canonical_form
from c4free.graph import Graph, GraphError, adding_edge_creates_c4, make_snk, make_star
from c4free.search import (
    SearchState,
    _best_improving,
    _c4free_after,
    _flip_orbits,
    _generators,
    _single_flips,
    claim1_check,
    claim2_check,
    claim3_check,
    hill_climb,
    lemma1_test,
    propose_moves,
    random_c4free_graph,
)
from c4free.spectral import snk_mu, spectral_radii, spectral_radius
from conftest import random_connected_graph
from search_reference import reference_best_improving, reference_moves


def _moves(g, x):
    """The candidates of propose_moves, each built as a Move."""
    cands = propose_moves(g, x)
    return [cands.move(i) for i in range(len(cands))]


def _claim1_instance(n_star: int) -> Graph:
    """S_{n_star,1} with a 2-edge pendant path hung off a plain leaf; the
    path edge joins two degree-2 vertices."""
    g = make_snk(n_star, 1)
    g = Graph(n_star + 2, g.rows + (0, 0))
    return g.add_edge(3, n_star).add_edge(n_star, n_star + 1)


def _claim2_instance() -> Graph:
    # K_{1,15} with a chain leaf-u-v-w-leaf' and a pendant at v: degrees
    # along u-v-w are (2, 3, 2), m = 20, C4-free, connected
    h = make_star(16)
    h = Graph(20, h.rows + (0,) * 4)
    return (
        h.add_edge(1, 16)
        .add_edge(16, 17)
        .add_edge(17, 18)
        .add_edge(18, 2)
        .add_edge(17, 19)
    )


class TestLemma1:
    def test_leaf_relocation(self):
        # move a leaf from a light vertex to the heaviest one
        g = make_snk(8, 1)
        g = Graph(9, g.rows + (0,))
        g = g.add_edge(3, 8)  # pendant at a plain leaf
        x = spectral_radius(g).vec
        assert x[0] == max(x)
        g_prime = g.remove_edge(3, 8).add_edge(0, 8)
        assert lemma1_test(g, g_prime, 0)
        assert spectral_radius(g_prime).mu > spectral_radius(g).mu + 1e-10

    def test_identity_rejected(self):
        g = make_star(5)
        with pytest.raises(GraphError):
            lemma1_test(g, g, 0)

    def test_shrinking_neighborhood_rejected(self):
        g = make_star(5)
        with pytest.raises(GraphError):
            lemma1_test(g, g.remove_edge(0, 1), 0)

    def test_positive_implies_strict_increase(self, rng):
        checked = 0
        while checked < 500:
            g = random_connected_graph(rng, rng.randint(3, 9), extra=rng.randint(0, 3))
            u = rng.randrange(g.n)
            absent = [v for v in range(g.n) if v != u and not g.has_edge(u, v)]
            if not absent:
                continue
            g_prime = g.add_edge(u, rng.choice(absent))
            # removing some other edge keeps it a genuine rewire half the time
            if rng.random() < 0.5:
                others = [
                    e for e in g_prime.edges() if u not in e
                ]
                if others:
                    g_prime = g_prime.remove_edge(*rng.choice(others))
            if lemma1_test(g, g_prime, u):
                assert (
                    spectral_radius(g_prime).mu > spectral_radius(g).mu + 1e-10
                )
            checked += 1


class TestProposeMoves:
    def test_star_has_no_beneficial_move(self):
        g = make_star(13)  # m = 12, the global maximum
        x = spectral_radius(g).vec
        moves = _moves(g, x)
        mu = spectral_radius(g).mu
        for mv in moves[:40]:
            assert spectral_radius(mv.apply(g)).mu <= mu + 1e-12

    def test_p5_improves(self):
        p5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        x = spectral_radius(p5).vec
        moves = _moves(p5, x)
        assert moves
        mu = spectral_radius(p5).mu
        assert any(spectral_radius(mv.apply(p5)).mu > mu + 1e-10 for mv in moves)

    def test_paw_is_local_maximum(self):
        # triangle + pendant edge is S_{4,1}, the m = 4 optimum: no rewire
        # improves it
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        mu = spectral_radius(g).mu
        x = spectral_radius(g).vec
        for mv in _moves(g, x):
            assert spectral_radius(mv.apply(g)).mu <= mu + 1e-12

    def test_triangle_plus_disjoint_edge_improves(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        x = spectral_radius(g).vec
        moves = _moves(g, x)
        mu = spectral_radius(g).mu
        assert any(spectral_radius(mv.apply(g)).mu > mu + 1e-10 for mv in moves)

    @staticmethod
    def _assert_distinct_rewires(moves):
        # each move is proposed once, and never removes an edge it adds
        keys = [(mv.removed, mv.added) for mv in moves]
        assert len(set(keys)) == len(keys)
        assert all(not set(mv.removed) & set(mv.added) for mv in moves)

    def test_moves_preserve_edge_count_and_c4freeness(self, rng):
        for _ in range(20):
            g = random_c4free_graph(8, rng)
            x = spectral_radius(g).vec
            moves = _moves(g, x)
            self._assert_distinct_rewires(moves)
            for mv in moves[:30]:
                h = mv.apply(g)
                assert h.m == g.m
                assert not h.has_c4()
                # the carried graph is the rewire the move names
                assert set(mv.removed) <= set(g.edges())
                assert h == Graph.from_edges(g.n, (set(g.edges()) - set(mv.removed)) | set(mv.added))

    def test_k3_component_away_from_the_top_vertex(self):
        # the 3-path relocation on a triangle names one edge twice; that
        # move is dropped, the others are proposed
        g = Graph.from_edges(9, [(0, j) for j in range(1, 6)] + [(6, 7), (7, 8), (6, 8)])
        x = spectral_radius(g).vec
        moves = _moves(g, x)
        assert moves
        self._assert_distinct_rewires(moves)
        assert all(len(mv.removed) < 3 and not mv.apply(g).has_c4() for mv in moves)


def _assert_matches_reference(g, x):
    # repr shows every bit of a gain, the sign of a zero and the types
    cands = propose_moves(g, x)
    assert [repr(cands.move(i)) for i in range(len(cands))] == [repr(mv) for mv in reference_moves(g, x)]


class TestMatchesReference:
    def test_random_graphs(self, rng):
        padded = relocated = 0
        for _ in range(240):
            g = random_c4free_graph(rng.randint(2, 16), rng)
            x = spectral_radius(g).vec
            _assert_matches_reference(g, x)
            padded += any(g.degree(v) == 0 for v in range(g.n))
            relocated += any(len(mv.removed) > 1 for mv in reference_moves(g, x))
        assert padded and relocated

    def test_k3_component_away_from_the_top_vertex(self, rng):
        # a star, a triangle and isolated padding vertices, in shuffled labels
        edges = [(0, j) for j in range(1, 6)] + [(6, 7), (7, 8), (6, 8)]
        for pad in range(3):
            order = list(range(9 + pad))
            rng.shuffle(order)
            g = Graph.from_edges(9 + pad, [(order[u], order[v]) for u, v in edges])
            _assert_matches_reference(g, spectral_radius(g).vec)

    def test_stack_of_a_range_is_that_range_of_the_stack(self, rng):
        # the climb builds its stacks a chunk at a time, from the first
        # member of each orbit: a range, or any indices, of the whole stack
        for _ in range(50):
            g = random_c4free_graph(rng.randint(2, 12), rng)
            cands = propose_moves(g, spectral_radius(g).vec)
            whole = cands.stack(np.arange(len(cands)))
            lo = rng.randint(0, len(cands))
            hi = rng.randint(lo, len(cands))
            assert whole.dtype == np.uint8 and np.array_equal(cands.stack(np.arange(lo, hi)), whole[lo:hi])
            idx = np.array(rng.sample(range(len(cands)), rng.randint(0, len(cands))), dtype=np.intp)
            assert np.array_equal(cands.stack(idx), whole[idx])

    def test_every_state_of_the_benchmark_climb(self, monkeypatch):
        # search --m 14 --restarts 2 --seed 1: both restarts, every step
        propose, states = search.propose_moves, []

        def checked(g, x):
            _assert_matches_reference(g, x)
            states.append(g)
            return propose(g, x)

        monkeypatch.setattr(search, "propose_moves", checked)
        st = hill_climb(14, restarts=2, seed=1)
        assert st.current in states and len(states) > len(st.moves) + 1

    def test_climb_matches_the_unpruned_climb(self, monkeypatch):
        # solving one candidate per orbit makes the moves that solving every
        # candidate makes
        for m in range(9, 15):
            for seed in (1, 7):
                a = hill_climb(m, restarts=2, seed=seed)
                with monkeypatch.context() as mp:
                    mp.setattr(search, "_best_improving", reference_best_improving)
                    b = hill_climb(m, restarts=2, seed=seed)
                assert (a.mu, a.current, a.seed, a.moves) == (b.mu, b.current, b.seed, b.moves)


def _c4free_after_by_graph_ops(g, removed, added):
    """The admission test spelled with checked Graph operations: refuse what
    they refuse (an absent or twice-removed edge, a present added edge) and
    an added edge that closes a 4-cycle."""
    try:
        for e in removed:
            g = g.remove_edge(*e)
        for u, v in added:
            if adding_edge_creates_c4(g, u, v):
                return False
            g = g.add_edge(u, v)
    except GraphError:
        return False
    return True


class TestC4freeAfter:
    def test_matches_graph_operations(self, rng):
        refused = admitted = 0
        for _ in range(400):
            g = random_c4free_graph(rng.randint(3, 10), rng)
            pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
            for _ in range(10):
                # any pairs: absent removals, present additions, repeats
                removed = tuple(rng.choice(pairs) for _ in range(rng.randint(1, 3)))
                added = tuple(rng.choice(pairs) for _ in range(len(removed)))
                ok = _c4free_after(g.rows, removed, added)
                assert ok == _c4free_after_by_graph_ops(g, removed, added)
                admitted += ok
                refused += not ok
        assert admitted and refused

    def test_edge_removed_twice(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert not _c4free_after(k3.rows, ((0, 1), (0, 1)), ((0, 1), (1, 2)))

    def test_present_edge_added(self):
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert not _c4free_after(p4.rows, ((0, 1),), ((1, 2),))


class TestSingleFlips:
    def test_three_walk_rule_matches_c4free_after(self, rng):
        # every (edge, non-edge) pair; tally the pairs sharing a vertex
        shared = {True: 0, False: 0}
        for _ in range(200):
            g = random_c4free_graph(rng.randint(1, 14), rng)
            edges = list(g.edges())
            non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
            ea, eb = np.array(edges, dtype=np.intp).reshape(-1, 2).T
            flips = _single_flips(spectral.to_numpy(g).astype(np.uint8), ea, eb)
            admitted = {(edges[k], (u, v)) for k, u, v in zip(*(a.tolist() for a in flips))}
            for e in edges:
                for f in non_edges:
                    ok = _c4free_after(g.rows, [e], [f])
                    assert ((e, f) in admitted) == ok
                    if set(e) & set(f):
                        shared[ok] += 1
        assert shared[True] and shared[False]


def _flips(g, gens=None):
    """The single flips of g in proposal order, as (edge, non-edge) pairs,
    and the orbit root of each from _flip_orbits under gens, by default the
    generators the canonizer proves on g."""
    edges = list(g.edges())
    ea, eb = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    k, u, v = _single_flips(spectral.to_numpy(g).astype(np.uint8), ea, eb)
    flips = [(edges[e], (a, b)) for e, a, b in zip(k.tolist(), u.tolist(), v.tolist())]
    return flips, _flip_orbits(_generators(g) if gens is None else gens, g.n, ea[k], eb[k], u, v)


def _image(p, flip):
    return tuple(tuple(sorted((p[a], p[b]))) for a, b in flip)


def _padded(g, pad):
    return Graph(g.n + pad, g.rows + (0,) * pad)


class TestFlipOrbits:
    def test_no_flips(self):
        # m = 1: K_2 has no non-edge, so no flip and no candidate
        g = make_star(2)
        flips, roots = _flips(g)
        assert flips == [] and len(roots) == 0
        cands = propose_moves(g, spectral_radius(g).vec)
        assert len(cands) == len(cands.orbit) == 0

    def test_asymmetric_graph_solves_every_candidate(self, monkeypatch):
        # the spider with legs of 1, 2 and 3 edges has no automorphism but
        # the identity: no generator, every candidate its own orbit, and
        # every candidate of a range solved
        g = Graph.from_edges(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        assert len(_generators(g)) == 0
        cands = propose_moves(g, spectral_radius(g).vec)
        assert len(cands) > 1 and np.array_equal(cands.orbit, np.arange(len(cands)))
        radii, solved = search.spectral_radii, []

        def counting(stack):
            solved.append(len(stack))
            return radii(stack)

        monkeypatch.setattr(search, "spectral_radii", counting)
        _best_improving(SearchState(current=g, mu=math.inf, seed=0), cands, 0, len(cands))
        assert sum(solved) == len(cands)

    def test_a_map_that_is_no_automorphism_raises(self):
        # swapping the end and the inner vertex of a path maps the flip
        # (01 -> 02) onto (01 -> 12), and 12 is an edge
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert ((0, 1), (0, 2)) in _flips(g)[0]
        with pytest.raises(RuntimeError):
            _flips(g, np.array([[1, 0, 2, 3]]))

    def test_orbit_labels_on_random_graphs(self, rng):
        # each candidate is labelled by the first member of its orbit: an
        # earlier or the same single flip, whose rewired graph is isomorphic
        # to its own and of the same mu; a relocation labels itself
        relocations = merged = 0
        for _ in range(60):
            g = random_c4free_graph(rng.randint(2, 10), rng)
            cands = propose_moves(g, spectral_radius(g).vec)
            mus = spectral_radii(cands.stack(np.arange(len(cands))))
            for i, first in enumerate(cands.orbit.tolist()):
                mv = cands.move(i)
                if len(mv.removed) > 1:
                    relocations += 1
                    assert first == i
                    continue
                assert first <= i and cands.orbit[first] == first and len(cands.move(first).removed) == 1
                if first < i:
                    merged += 1
                    assert abs(mus[i] - mus[first]) <= 1e-13
                    gi, gf = (nx.from_numpy_array(spectral.to_numpy(cands.move(c).apply(g))) for c in (i, first))
                    assert nx.is_isomorphic(gi, gf)
        assert relocations and merged

    @pytest.mark.parametrize(
        "g",
        [_padded(make_star(s), n - s) for n in (5, 6, 7) for s in range(3, n + 1)]
        + [make_snk(n, k) for n in (4, 5, 6, 7) for k in range(1, (n - 1) // 2 + 1)],
        ids=graph6.encode,
    )
    def test_orbits_against_the_full_group(self, g):
        # the full automorphism group, over all permutations of the vertices:
        # the orbits found are no coarser than its orbits, and each flip is
        # merged only with an image of itself
        edges = set(g.edges())
        group = [
            p for p in itertools.permutations(range(g.n)) if {tuple(sorted((p[a], p[b]))) for a, b in edges} == edges
        ]
        flips, roots = _flips(g)
        true_orbits = {frozenset(_image(p, f) for p in group) for f in flips}
        assert len(set(roots.tolist())) >= len(true_orbits)
        for f, r in zip(flips, roots.tolist()):
            assert f in {_image(p, flips[r]) for p in group}


class TestRandomStart:
    def test_edge_count_and_c4free(self, rng):
        for m in (1, 4, 9, 13):
            g = random_c4free_graph(m, rng)
            assert g.m == m
            assert not g.has_c4()
            assert g.n == m + 1


class TestHillClimb:
    def test_m12_reaches_star(self):
        st = hill_climb(12, restarts=4, seed=11)
        assert st.mu == pytest.approx(math.sqrt(12), abs=1e-9)

    def test_m5_reaches_s51(self):
        st = hill_climb(5, restarts=4, seed=5)
        assert st.mu == pytest.approx(snk_mu(5, 1), abs=1e-9)
        assert canonical_form(st.current.strip_isolated()) == canonical_form(
            make_snk(5, 1)
        )

    def test_m9_reaches_three(self):
        st = hill_climb(9, restarts=4, seed=9)
        assert st.mu == pytest.approx(3.0, abs=1e-9)

    def test_deterministic(self):
        a = hill_climb(7, restarts=2, seed=3)
        b = hill_climb(7, restarts=2, seed=3)
        c = hill_climb(7, restarts=2, seed=3, workers=2)
        assert a.mu == b.mu == c.mu and a.moves == b.moves == c.moves

    @pytest.mark.parametrize("restarts, pools", [(2, [2]), (1, [])])
    def test_no_more_workers_than_restarts(self, monkeypatch, restarts, pools):
        built = []

        class InProcessPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        serial = hill_climb(6, restarts=restarts, seed=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        st = hill_climb(6, restarts=restarts, seed=1, workers=64)
        assert built == pools
        assert (st.mu, st.current, st.seed, st.moves) == (serial.mu, serial.current, serial.seed, serial.moves)

    def test_ties_keep_the_earlier_candidate(self, monkeypatch):
        g = make_star(4)
        st = SearchState(current=g, mu=spectral_radius(g).mu, seed=0)
        cands = propose_moves(g, spectral_radius(g).vec)
        # the star's flips are one orbit; label each candidate its own
        cands = dataclasses.replace(cands, orbit=np.arange(len(cands)))
        assert len(cands) >= 2
        for gap, winner in ((0.0, 0), (1e-13, 0), (1e-11, 1)):
            monkeypatch.setattr(search, "spectral_radii", lambda stack: np.array([5.0, 5.0 + gap]))
            assert _best_improving(st, cands, 0, 2) == winner

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_does_not_change_the_climb(self, chunk, monkeypatch):
        # the candidates are built and solved a chunk at a time, so no
        # eigensolve receives more than 7 matrices: the winner's solve
        # stacks its distinct components of one order, never 8 at m = 11
        a = hill_climb(11, restarts=2, seed=4)
        top_pairs, sizes = spectral._top_pairs, []

        def counting(stack):
            sizes.append(len(stack))
            return top_pairs(stack)

        monkeypatch.setattr(spectral, "RADII_CHUNK", chunk)
        monkeypatch.setattr(spectral, "_top_pairs", counting)
        b = hill_climb(11, restarts=2, seed=4)
        assert (a.mu, a.current, a.seed, a.moves) == (b.mu, b.current, b.seed, b.moves)
        assert sizes and max(sizes) <= 7

    def test_one_candidate_per_orbit_is_solved(self, monkeypatch):
        # search --m 14 --restarts 2 --seed 1, the benchmark's climb, solves
        # 605 of its 5,350 scanned candidates, the first of each orbit in each
        # scanned range. Each skipped candidate rewires the graph into one
        # isomorphic to that of an earlier solved candidate of its range, of
        # the same mu
        scan, radii = search._best_improving, search.spectral_radii
        stack, solved, scans = search.Candidates.stack, [], []

        def recording_stack(cands, idx):
            solved[-1].extend(idx.tolist())
            return stack(cands, idx)

        def recording_scan(state, cands, lo, hi):
            solved.append([])
            scans.append((state.current, cands, lo, hi))
            return scan(state, cands, lo, hi)

        def counting(st):
            counted.append(len(st))
            return radii(st)

        counted = []
        monkeypatch.setattr(search.Candidates, "stack", recording_stack)
        monkeypatch.setattr(search, "_best_improving", recording_scan)
        monkeypatch.setattr(search, "spectral_radii", counting)
        hill_climb(14, restarts=2, seed=1)
        assert sum(counted) == sum(map(len, solved)) == 605
        assert sum(hi - lo for _, _, lo, hi in scans) == 5350
        for (g, cands, lo, hi), done in zip(scans, solved):
            mus = radii(stack(cands, np.arange(lo, hi)))
            done = set(done)
            assert done <= set(range(lo, hi))
            for j in set(range(lo, hi)) - done:
                # the first member of j's orbit in the range is the one solved
                i = lo + int(np.flatnonzero(cands.orbit[lo:hi] == cands.orbit[j])[0])
                assert i < j and i in done
                assert abs(mus[i - lo] - mus[j - lo]) <= 1e-13
                gi, gj = (nx.from_numpy_array(spectral.to_numpy(cands.move(c).apply(g))) for c in (i, j))
                assert nx.is_isomorphic(gi, gj)

    def test_smallest_sizes(self):
        # m = 1 has no candidate; at m = 2 no candidate has positive
        # predicted gain, so the first stack is empty
        for m, mu in ((1, 1.0), (2, math.sqrt(2))):
            st = hill_climb(m, restarts=2, seed=0)
            assert st.mu == pytest.approx(mu, abs=1e-12)
            assert st.moves == []

    def test_move_log_strictly_increasing(self):
        st = hill_climb(10, restarts=3, seed=1)
        for mv in st.moves:
            assert mv["mu_after"] > mv["mu_before"] + 1e-12


class TestClaims:
    def test_claim1_on_pendant_path(self):
        g = _claim1_instance(12)
        assert g.m == 14
        assert claim1_check(g, 3, 12)

    def test_claim1_stronger_regime(self):
        # mu >= 2 + sqrt(3) here, the regime the weight bound relies on
        g = _claim1_instance(20)
        assert g.m == 22
        assert claim1_check(g, 3, 20)
        assert claim1_check(g, 1, 2)  # the matched leaf pair

    def test_claim1_fails_on_the_tadpole(self):
        # the stated hypotheses hold, yet the claim does not: a triangle
        # with an 11-edge path, far below mu = 2 + sqrt(3)
        g = graph6.decode("M{CGGC@?G?_@?@??_")
        assert (g.m, g.is_connected(), g.has_c4()) == (14, True, False)
        assert (g.degree(1), g.degree(2), g.has_edge(1, 2)) == (2, 2, True)
        r = spectral_radius(g)
        assert r.mu == pytest.approx(2.2361, abs=1e-4)
        assert r.vec[1] * r.vec[2] == pytest.approx(0.2236, abs=1e-4)
        assert 1 / (4 * r.mu) == pytest.approx(0.1118, abs=1e-4)
        assert not claim1_check(g, 1, 2)

    def test_claim1_precondition_errors(self):
        g = _claim1_instance(12)
        with pytest.raises(GraphError):
            claim1_check(g, 0, 1)  # hub degree != 2
        with pytest.raises(GraphError):
            claim1_check(make_snk(6, 1), 1, 2)  # m < 14

    def test_claim2(self):
        g = _claim2_instance()
        assert g.m == 20
        assert claim2_check(g, 16, 17, 18)

    def test_claim2_preconditions(self):
        g = _claim2_instance()
        with pytest.raises(GraphError):
            claim2_check(g, 16, 17, 19)  # w has degree 1

    def test_claim3_zero_weight_edge(self):
        # K_2 + K_3: the Perron vector sits on the triangle, the K_2 edge
        # has zero weight, and deleting it keeps mu = 2
        g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        assert claim3_check(g, 0, 1)
        assert spectral_radius(g.remove_edge(0, 1)).mu == pytest.approx(2.0, abs=1e-10)

    def test_claim3_hypothesis_rejected(self):
        # K_2 alone: x_u x_v = 1/2 > 1/(4 mu) = 1/4
        with pytest.raises(GraphError):
            claim3_check(Graph.from_edges(2, [(0, 1)]), 0, 1)

    def test_claim3_random_instances(self, rng):
        checked = 0
        while checked < 200:
            g = random_c4free_graph(rng.randint(3, 12), rng)
            r = spectral_radius(g)
            edges = list(g.edges())
            u, v = edges[rng.randrange(len(edges))]
            if float(r.vec[u] * r.vec[v]) > 1.0 / (4.0 * r.mu):
                continue
            assert claim3_check(g, u, v)
            checked += 1
