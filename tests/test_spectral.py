from __future__ import annotations

import math
import random

import numpy as np
import pytest

from c4free import spectral, verify
from c4free._kernels import power_iteration
from c4free.enumeration import enumerate_c4free_by_edges, enumerate_c4free_by_order, enumerate_kfree_by_order
from c4free.graph import Graph, make_friendship, make_snk, make_star
from c4free.search import propose_moves, random_c4free_graph
from c4free.spectral import (
    ConvergenceError,
    max_entry_ok,
    rayleigh,
    snk_bound_identity,
    snk_cubic,
    snk_mu,
    spectral_radii,
    spectral_radius,
    spectral_radius_stream,
    to_numpy,
    union_radii,
    xmin,
)
from conftest import random_connected_graph, random_graph
from spectral_reference import reference_spectral_radius


def eig_oracle(g: Graph) -> float:
    """Dense eigensolver; the same LAPACK routine as spectral_radius."""
    if g.n == 0:
        return 0.0
    return float(np.max(np.linalg.eigvalsh(to_numpy(g))))


def power_oracle(g: Graph) -> list[tuple[list[int], float, np.ndarray]]:
    """(component, mu, Perron vector) of each component with an edge, by
    power iteration: no LAPACK, so independent of spectral_radius."""
    a = to_numpy(g)
    out = []
    for comp in g.components():
        if len(comp) > 1:
            mu, vec, _, _, ok = power_iteration(a[np.ix_(comp, comp)], 1e-12, 10**6)
            assert ok
            out.append((comp, mu, vec))
    return out


class TestSpectralRadius:
    def test_star(self):
        r = spectral_radius(make_star(10))
        assert r.mu == pytest.approx(3.0, abs=1e-10)

    def test_k3(self):
        assert spectral_radius(make_friendship(1)).mu == pytest.approx(2.0, abs=1e-10)

    def test_s91(self):
        # 3 is a root of x^3 - x^2 - 8x + 6
        assert spectral_radius(make_snk(9, 1)).mu == pytest.approx(3.0, abs=1e-10)

    def test_result_contract(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 12))
            r = spectral_radius(g)
            assert abs(np.linalg.norm(r.vec) - 1.0) <= 1e-12
            assert np.all(r.vec >= 0)
            assert r.residual <= 1e-12
            if g.m:
                avg_deg = 2 * g.m / g.n
                max_deg = max(g.degree(u) for u in range(g.n))
                assert r.mu >= max(avg_deg, math.sqrt(max_deg)) - 1e-9

    def test_against_dense_oracle(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12))
            r = spectral_radius(g)
            assert r.mu == pytest.approx(eig_oracle(g), abs=1e-9)
            solved = power_oracle(g)
            assert r.mu == pytest.approx(max((mu for _, mu, _ in solved), default=0.0), abs=1e-10)
            if solved:
                # the vector is the Perron vector of one component of
                # maximal mu, and zero elsewhere
                comp, mu, vec = next(s for s in solved if r.vec[s[0][0]] > 0)
                assert mu == pytest.approx(r.mu, abs=1e-10)
                assert r.vec[comp] == pytest.approx(vec, abs=1e-9)
                assert np.count_nonzero(r.vec) == len(comp)

    def test_disconnected_support(self):
        # K_3 plus K_2: vector lives on the triangle
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        r = spectral_radius(g)
        assert r.mu == pytest.approx(2.0, abs=1e-10)
        assert r.vec[3] == 0 and r.vec[4] == 0

    def test_edge_monotonicity(self, rng):
        # adding an edge to a connected graph strictly increases mu
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(3, 10))
            absent = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not absent:
                continue
            u, v = rng.choice(absent)
            assert spectral_radius(g.add_edge(u, v)).mu > spectral_radius(g).mu + 1e-10

    def test_tol_below_double_precision(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
        with pytest.raises(ConvergenceError):
            spectral_radius(make_star(10))


def interleaved_graph(rng: random.Random) -> Graph:
    """A disjoint union of random connected pieces, some of them repeated,
    with its vertices shuffled so that a component need not be a contiguous
    run of vertices."""
    pieces = [random_connected_graph(rng, rng.randint(1, 6), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
    pieces += rng.sample(pieces, rng.randint(0, len(pieces)))
    edges, n = [], 0
    for h in pieces:
        edges += [(n + u, n + v) for u, v in h.edges()]
        n += h.n
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, edges).relabel(tuple(perm))


def assert_same_results(graphs):
    """The stream yields each graph with the reference loop's result, bit
    for bit."""
    graphs = list(graphs)
    out = list(spectral_radius_stream(graphs))
    assert [g for g, _ in out] == graphs
    for g, r in out:
        ref = reference_spectral_radius(g)
        assert (r.mu, r.residual, r.iters) == (ref.mu, ref.residual, ref.iters), g
        assert r.vec.dtype == ref.vec.dtype and r.vec.tobytes() == ref.vec.tobytes(), g


def assert_same_union_results(unions):
    """union_radii gives each union, from its pieces, the reference loop's
    result, bit for bit."""
    unions = list(unions)
    out = list(union_radii(unions))
    assert [g for g, _ in out] == [g for g, _ in unions]
    for g, r in out:
        ref = reference_spectral_radius(g)
        assert (r.mu, r.residual, r.iters) == (ref.mu, ref.residual, ref.iters), g
        vec = r.perron()
        assert vec.dtype == ref.vec.dtype and vec.tobytes() == ref.vec.tobytes(), g


STREAMS = pytest.mark.parametrize(
    "stream",
    [
        lambda **kw: enumerate_c4free_by_edges(10, **kw),
        lambda **kw: enumerate_c4free_by_order(8, **kw),
        lambda **kw: enumerate_kfree_by_order(7, 2, **kw),
    ],
    ids=["enumerate --m 10", "enumerate --n 8", "K_{2,3}-free --n 7"],
)


class TestStream:
    @STREAMS
    def test_matches_reference_on_streams(self, stream):
        assert_same_results(stream())

    @STREAMS
    def test_unions_from_pieces_match_reference(self, stream):
        assert_same_union_results(stream(with_pieces=True))

    def test_unions_of_repeated_pieces_match_reference(self):
        # more than two blocks of unions, pieces repeated within and across
        # them, K_1 among them
        rng = random.Random(20261021)
        unions = []
        for _ in range(2 * spectral.STREAM_BLOCK + 7):
            pieces = [random_connected_graph(rng, rng.randint(1, 6), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
            pieces += rng.sample(pieces, rng.randint(0, len(pieces)))
            rows = ()
            for p in pieces:
                rows += tuple(r << len(rows) for r in p.rows)
            unions.append((Graph(len(rows), rows), pieces))
        assert any(p.n == 1 for _, pieces in unions for p in pieces)
        assert_same_union_results(unions)

    def test_matches_reference_on_interleaved_components(self):
        # more than two blocks, with components repeated within and across graphs
        rng = random.Random(20261020)
        graphs = [interleaved_graph(rng) for _ in range(2 * spectral.STREAM_BLOCK + 7)]
        assert any(c != list(range(c[0], c[-1] + 1)) for g in graphs for c in g.components())
        assert_same_results(graphs)

    def test_spectral_radius_is_the_one_graph_stream(self, rng):
        for _ in range(50):
            g = interleaved_graph(rng)
            r, ref = spectral_radius(g), reference_spectral_radius(g)
            assert (r.mu, r.residual, r.iters, r.vec.tobytes()) == (ref.mu, ref.residual, ref.iters, ref.vec.tobytes())

    def test_solves_each_distinct_component_once_per_block(self, monkeypatch):
        # one graph solved one component at a time made 1,773 calls
        calls = []
        top_pairs = spectral._top_pairs

        def counting(stack):
            calls.append(len(stack))
            return top_pairs(stack)

        monkeypatch.setattr(spectral, "_top_pairs", counting)
        assert verify.verify_theorem1(9).count == 863
        assert len(calls) <= 20
        assert sum(calls) < 863

    def test_empty_stream(self):
        assert list(spectral_radius_stream([])) == []

    def test_no_vertices(self):
        with pytest.raises(ValueError):
            spectral_radius(Graph.empty(0))
        with pytest.raises(ValueError):
            list(spectral_radius_stream([make_star(3), Graph.empty(0)]))


@pytest.fixture(scope="module")
def candidate_stacks():
    """(graph, moves, stack) for the climb's candidates on 200 random C4-free
    graphs."""
    rng = random.Random(20261019)
    out = []
    for _ in range(200):
        g = random_c4free_graph(rng.randint(2, 9), rng)
        cands = propose_moves(g, spectral_radius(g).vec)
        moves = [cands.move(i) for i in range(len(cands))]
        out.append((g, moves, cands.stack(np.arange(len(cands)))))
    return out


class TestSpectralRadii:
    def test_stack_is_the_rewired_graphs(self, candidate_stacks):
        for g, moves, stack in candidate_stacks:
            assert stack.shape == (len(moves), g.n, g.n)
            for mv, a in zip(moves, stack):
                assert np.array_equal(a, to_numpy(mv.apply(g)))

    def test_matches_spectral_radius(self, candidate_stacks):
        for g, moves, stack in candidate_stacks:
            mus = spectral_radii(stack)
            assert mus.shape == (len(moves),)
            for mv, mu in zip(moves, mus):
                assert abs(mu - spectral_radius(mv.apply(g)).mu) <= 1e-12

    def test_matches_power_iteration(self, candidate_stacks):
        # every 8th candidate of each stack: the reference loop is slow
        for g, moves, stack in candidate_stacks:
            for mv, mu in zip(moves[::8], spectral_radii(stack)[::8]):
                solved = power_oracle(mv.apply(g))
                assert mu == pytest.approx(max((p for _, p, _ in solved), default=0.0), abs=1e-10)

    def test_empty_stack(self):
        assert spectral_radii(np.zeros((0, 4, 4))).shape == (0,)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            spectral_radii(to_numpy(make_star(3)))  # one matrix, not a stack

    def test_tol_below_double_precision(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_TOL", 1e-300)
        with pytest.raises(ConvergenceError):
            spectral_radii(to_numpy(make_star(10))[None])


class TestRayleigh:
    def test_perron_vector_of_k3(self):
        g = make_friendship(1)
        r = spectral_radius(g)
        assert rayleigh(g, r.vec) == pytest.approx(2.0, abs=1e-9)

    def test_basis_vector(self):
        g = make_star(5)
        x = np.zeros(5)
        x[0] = 1.0
        assert rayleigh(g, x) == 0.0

    def test_uniform_on_c5(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        x = np.full(5, 1 / math.sqrt(5))
        assert rayleigh(c5, x) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            rayleigh(make_star(3), np.ones(3))

    def test_rayleigh_principle(self, rng):
        nprng = np.random.default_rng(7)
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 10))
            mu = spectral_radius(g).mu
            for _ in range(10):
                x = nprng.normal(size=g.n)
                x /= np.linalg.norm(x)
                assert rayleigh(g, x) <= mu + 1e-8


class TestSnkClosedForm:
    def test_exact_at_91(self):
        assert snk_mu(9, 1) == pytest.approx(3.0, abs=1e-12)

    def test_paw(self):
        # largest root of x^3 - x^2 - 3x + 1, frozen from 200-step bisection
        # and cross-checked against the eigensolver
        mu = snk_mu(4, 1)
        assert mu == pytest.approx(2.170086486626034, abs=1e-12)
        assert mu == pytest.approx(spectral_radius(make_snk(4, 1)).mu, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 10, 26, 50])
    def test_star_case(self, n):
        assert snk_mu(n, 0) == pytest.approx(math.sqrt(n - 1), abs=1e-12)

    def test_order_one_is_k1(self):
        # S_{1,0} = K_1: mu = 0, not the cubic's largest root 1
        assert snk_mu(1, 0) == 0.0
        with pytest.raises(ValueError, match=r"^need n >= 2$"):
            xmin(1)

    def test_matches_the_eigensolver_on_every_snk(self):
        for n in range(1, 15):
            for k in range((n - 1) // 2 + 1):
                assert abs(snk_mu(n, k) - spectral_radius(make_snk(n, k)).mu) <= 1e-12, (n, k)

    def test_cubic_root(self):
        for n, k in [(9, 1), (12, 3), (30, 10)]:
            _, f = snk_cubic(n, k)
            assert abs(f(snk_mu(n, k))) < 1e-9

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(30):
            n = rng.randint(3, 40)
            k = rng.randint(0, (n - 1) // 2)
            assert snk_mu(n, k) == pytest.approx(
                spectral_radius(make_snk(n, k)).mu, abs=1e-8
            )


class TestXmin:
    def test_values(self):
        assert xmin(4) == pytest.approx(1.3874258867227921, abs=1e-12)
        assert xmin(10) == pytest.approx(2.0971675407097272, abs=1e-12)

    def test_increasing_to_the_right(self):
        for n in range(2, 51):
            for k in range(0, (n - 1) // 2 + 1):
                _, f = snk_cubic(n, k)
                assert f(xmin(n) + 1) > f(xmin(n))


class TestSnkBoundIdentity:
    def test_zero_at_nine(self):
        lhs, rhs = snk_bound_identity(9, 1)
        assert lhs == pytest.approx(0.0, abs=1e-9)
        assert rhs == pytest.approx(0.0, abs=1e-9)
        assert snk_mu(9, 1) == pytest.approx(3.0, abs=1e-9)

    def test_negative_below_nine(self):
        lhs, rhs = snk_bound_identity(8, 1)
        assert abs(lhs - rhs) <= 1e-9
        assert rhs < 0
        assert snk_mu(8, 1) > math.sqrt(8)

    def test_positive_above_nine(self):
        lhs, rhs = snk_bound_identity(20, 5)
        assert abs(lhs - rhs) <= 1e-9
        assert rhs > 0
        assert snk_mu(20, 5) <= math.sqrt(24) + 1e-9

    def test_lemma_direction_on_grid(self):
        for n in range(2, 61):
            for k in range(0, (n - 1) // 2 + 1):
                if n - 1 + k >= 9:
                    assert snk_mu(n, k) <= math.sqrt(n - 1 + k) + 1e-9
        for n in range(4, 9):
            assert snk_mu(n, 1) > math.sqrt(n)


class TestMaxEntry:
    def test_k2_boundary(self):
        r = spectral_radius(Graph.from_edges(2, [(0, 1)]))
        assert float(np.max(r.vec)) == pytest.approx(2**-0.5, abs=1e-12)
        assert max_entry_ok(r)

    def test_star_hub(self):
        r = spectral_radius(make_star(10))
        assert float(np.max(r.vec)) == pytest.approx(2**-0.5, abs=1e-9)

    def test_random_connected(self, rng):
        for _ in range(300):
            g = random_connected_graph(rng, rng.randint(2, 15))
            assert max_entry_ok(spectral_radius(g))
