from __future__ import annotations

import math
import random

import pytest

from c4free import graph6
from c4free.canon import canonical_form
from c4free.graph import Graph, SnkParams, make_friendship, make_snk, make_star
from c4free.spectral import snk_mu
from c4free.verify import (
    EQ_FRIENDSHIP,
    EQ_S91,
    EQ_SNK,
    EQ_STAR,
    VerificationRecord,
    classify_equality,
    snk_params,
    srg_table_check,
    verify_conjecture,
    verify_in3,
    verify_k2k1,
    verify_small_m,
    verify_theorem1,
)


class TestClassify:
    def test_star(self):
        assert classify_equality(make_star(10)) == EQ_STAR

    def test_s91(self):
        assert classify_equality(make_snk(9, 1)) == EQ_S91

    def test_friendship(self):
        assert classify_equality(make_friendship(3)) == EQ_FRIENDSHIP

    def test_snk(self):
        assert classify_equality(make_snk(8, 2)) == EQ_SNK

    def test_ignores_isolated(self):
        g = Graph(12, make_star(10).rows + (0, 0))
        assert classify_equality(g) == EQ_STAR

    def test_small_cases(self):
        assert classify_equality(Graph.from_edges(2, [(0, 1)])) == EQ_STAR
        assert classify_equality(make_friendship(1)) == EQ_FRIENDSHIP


class TestSnkParams:
    def test_every_snk_relabelled_and_padded(self):
        rng = random.Random(7)
        for n in range(2, 17):
            for k in range((n - 1) // 2 + 1):
                pad = rng.randint(0, 3)
                perm = list(range(n + pad))
                rng.shuffle(perm)
                g = Graph(n + pad, make_snk(n, k).rows + (0,) * pad).relabel(tuple(perm))
                assert snk_params(g) == SnkParams(n, k)

    def test_near_misses(self):
        # the edge and vertex counts fit S_{4,0} and S_{5,1}, the shapes do not
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        two_pendants = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
        assert snk_params(p4) is None
        assert snk_params(two_pendants) is None
        assert snk_params(Graph.empty(3)) is None


class TestTheorem1:
    def test_m9(self):
        s = verify_theorem1(9)
        assert s.count == 863
        assert not s.violations
        assert s.max_mu == pytest.approx(3.0, abs=1e-9)
        # the full equality family is S_{n,k} with n-1+k = 9; the paper's
        # statement names only the star and S_{9,1}, but S_{8,2} and
        # S_{7,3} (the friendship graph F_3) reach sqrt(9) as well
        classes = sorted(r.classification for r in s.equalities)
        assert classes == sorted([EQ_FRIENDSHIP, EQ_S91, EQ_SNK, EQ_STAR])
        forms = {canonical_form(graph6.decode(r.graph_id).strip_isolated()) for r in s.equalities}
        expected = {
            canonical_form(make_star(10)),
            canonical_form(make_snk(9, 1)),
            canonical_form(make_snk(8, 2)),
            canonical_form(make_snk(7, 3)),
        }
        assert forms == expected

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            verify_theorem1(8)

    def test_sink_called(self):
        recs = []
        verify_theorem1(9, sink=recs.append)
        assert len(recs) == 863


class TestSmallM:
    @pytest.mark.parametrize("m", range(4, 9))
    def test_witnesses_exist(self, m):
        s = verify_small_m(m)
        assert s.equalities  # witnesses of mu > sqrt(m)
        target = canonical_form(make_snk(m, 1))
        assert any(
            canonical_form(graph6.decode(r.graph_id)) == target for r in s.equalities
        )
        assert s.max_mu > math.sqrt(m)

    def test_m9_empty(self):
        assert not verify_small_m(9).equalities

    def test_maximizer_mu_matches_snk(self):
        # for m = 4..8 the overall maximizer is the S_{n,k} with n-1+k = m
        # and the largest feasible k (equivalently the smallest n); S_{m,1}
        # is a witness but not the maximizer once m >= 6
        for m in range(4, 9):
            s = verify_small_m(m)
            best = max(
                snk_mu(n, m - (n - 1))
                for n in range(3, m + 2)
                if 0 <= m - (n - 1) <= (n - 1) // 2
            )
            assert s.max_mu == pytest.approx(best, abs=1e-9)


class TestIn3:
    def test_n5_bowtie(self):
        s = verify_in3(5)
        assert s.ok
        assert [r.classification for r in s.equalities] == [EQ_FRIENDSHIP]
        g = graph6.decode(s.equalities[0].graph_id)
        assert canonical_form(g) == canonical_form(make_friendship(2))
        assert s.equalities[0].mu == pytest.approx((1 + math.sqrt(17)) / 2, abs=1e-9)

    def test_n6_no_equality(self):
        s = verify_in3(6)
        assert s.ok and not s.equalities

    def test_n7_f3(self):
        s = verify_in3(7)
        assert [r.classification for r in s.equalities] == [EQ_FRIENDSHIP]


class TestConjecture:
    def test_n4(self):
        s = verify_conjecture(4)
        assert s.ok and not s.violations
        assert len(s.equalities) == 1
        g = graph6.decode(s.equalities[0].graph_id)
        assert canonical_form(g) == canonical_form(make_snk(4, 1))

    def test_n6(self):
        s = verify_conjecture(6)
        assert s.ok
        assert len(s.equalities) == 1
        g = graph6.decode(s.equalities[0].graph_id)
        assert canonical_form(g) == canonical_form(make_snk(6, 2))

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            verify_conjecture(5)


class TestK2k1:
    def test_reduces_to_in3(self):
        a = verify_k2k1(5, 1)
        b = verify_in3(5)
        assert a.count == b.count
        assert {r.graph_id for r in a.equalities} == {r.graph_id for r in b.equalities}

    def test_k4_equality(self):
        s = verify_k2k1(4, 2)
        assert s.ok
        assert len(s.equalities) == 1
        rec = s.equalities[0]
        assert rec.mu == pytest.approx(3.0, abs=1e-9)  # K_4: mu^2 - mu = 6 = 2*3
        assert graph6.decode(rec.graph_id).m == 6

    def test_n5_k2_no_equality(self):
        s = verify_k2k1(5, 2)
        assert s.ok and not s.equalities


class TestSrgTable:
    def test_all_rows_exact(self):
        rows = srg_table_check()
        assert len(rows) == 5
        assert all(r["ok"] for r in rows)
        assert rows[0] == {"k": 2, "n": 16, "mu": 6, "lhs": 30, "rhs": 30, "ok": True}
        assert rows[3]["lhs"] == 870 and rows[3]["rhs"] == 870


class TestRecords:
    def test_record_shape(self):
        recs = []
        verify_in3(5, sink=recs.append)
        assert all(isinstance(r, VerificationRecord) for r in recs)
        for r in recs:
            g = graph6.decode(r.graph_id)
            assert (g.n, g.m) == (r.n, r.m)
            assert r.slack >= -1e-9 or r.classification == "VIOLATION"
