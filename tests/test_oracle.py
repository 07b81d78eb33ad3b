import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_vectors
from leggettsim.geometry import Z, canonical_i26, canonical_i28, make_pair
from leggettsim.inequalities import KINDS, quantum_value
from leggettsim.oracle import (
    LeggettEnsemblePoint,
    correlation_interval,
    oracle_max,
    pair_term_max,
    verify_bound,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


def probabilities(m_a, m_b, c):
    return [
        0.25 * (1 + alpha * m_a + beta * m_b + alpha * beta * c)
        for alpha in (1, -1)
        for beta in (1, -1)
    ]


class TestCorrelationInterval:
    def test_unconstrained(self):
        iv = correlation_interval(0.0, 0.0)
        assert (iv.lo, iv.hi) == (-1.0, 1.0)

    def test_deterministic(self):
        iv = correlation_interval(1.0, 1.0)
        assert (iv.lo, iv.hi) == (1.0, 1.0)

    def test_opposite_marginals(self):
        iv = correlation_interval(0.5, -0.5)
        assert (iv.lo, iv.hi) == (-1.0, 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            correlation_interval(1.5, 0.0)

    @given(st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=200)
    def test_endpoints_feasible_exterior_infeasible(self, m_a, m_b):
        iv = correlation_interval(m_a, m_b)
        assert iv.lo <= iv.hi + 1e-15
        for c in (iv.lo, iv.hi):
            assert min(probabilities(m_a, m_b, c)) >= -1e-12
        if iv.hi + 1e-6 <= 1.0:
            assert min(probabilities(m_a, m_b, iv.hi + 1e-6)) < 0
        if iv.lo - 1e-6 >= -1.0:
            assert min(probabilities(m_a, m_b, iv.lo - 1e-6)) < 0


class TestPairTermMax:
    def test_forced_correlations(self):
        pair = make_pair(Z, X, 0.0)
        point = LeggettEnsemblePoint(u=Z, v=Z)
        assert pair_term_max(point, pair, Z) == pytest.approx(2.0, abs=1e-12)

    def test_all_marginals_zero(self):
        pair = make_pair(Z, X, 0.3)
        point = LeggettEnsemblePoint(u=X, v=Y)
        assert pair_term_max(point, pair, Z) == pytest.approx(2.0, abs=1e-12)

    def test_difference_direction_bound(self):
        pair = make_pair(Z, X, math.radians(60))
        point = LeggettEnsemblePoint(u=Z, v=X)
        assert pair_term_max(point, pair, Z) <= 1.0 + 1e-12

    @given(unit_vectors(), unit_vectors(), unit_vectors(), st.floats(0.0, math.pi))
    @settings(max_examples=200, deadline=None)
    def test_analytic_bound(self, u, v, n, phi):
        e_seed = X if abs(u @ X) < 0.9 else Y
        e_hat = np.cross(u, e_seed)
        e_hat /= np.linalg.norm(e_hat)
        pair = make_pair(u, e_hat, phi)
        point = LeggettEnsemblePoint(u=u, v=v)
        value = pair_term_max(point, pair, n)
        assert value <= 2.0 - abs(float(v @ (pair.m - pair.m_prime))) + 1e-12

    @given(
        unit_vectors(), unit_vectors(), unit_vectors(), unit_vectors(), unit_vectors(),
        st.floats(0.0, math.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_exceeds_analytic_bound(self, u, v, n, bisector, other, phi):
        # a random pair, independent of the hidden-variable point
        e_hat = np.cross(bisector, other)
        if np.linalg.norm(e_hat) < 1e-3:
            e_hat = np.cross(bisector, X if abs(bisector @ X) < 0.9 else Y)
        e_hat /= np.linalg.norm(e_hat)
        pair = make_pair(bisector, e_hat, phi)
        point = LeggettEnsemblePoint(u=u, v=v)
        value = pair_term_max(point, pair, n)
        assert value <= 2.0 - abs(float(point.v @ (pair.m - pair.m_prime))) + 1e-12


class TestOracleMax:
    def test_phi_zero_saturates(self):
        assert oracle_max(canonical_i26(0.0), 500) == pytest.approx(6.0, abs=1e-12)

    def test_i26_below_quantum(self):
        phi = math.radians(36.8699)
        value = oracle_max(canonical_i26(phi), 500)
        assert value <= 6.0 + 1e-9
        assert value < quantum_value(KINDS["i26"], phi, 1.0)

    def test_i28_below_quantum(self):
        phi = math.radians(44.4153)
        value = oracle_max(canonical_i28(phi), 500)
        assert value <= 8.0 + 1e-9
        assert value < quantum_value(KINDS["i28"], phi, 1.0)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            oracle_max(canonical_i26(1.0), 10)

    def test_refinement_improves(self):
        config = canonical_i26(math.radians(36.87))
        coarse = oracle_max(config, 100)
        fine = oracle_max(config, 400)
        # grids are not strictly nested; allow tiny slack
        assert fine >= coarse - 1e-6


class TestVerifyBound:
    @pytest.mark.parametrize("deg", [10.0, 36.87, 70.0, 90.0])
    def test_i26_margins(self, deg):
        report = verify_bound(canonical_i26(math.radians(deg)), 300)
        assert report.passed and report.margin >= 0

    @pytest.mark.parametrize("deg", [10.0, 44.42, 70.0, 90.0])
    def test_i28_margins(self, deg):
        report = verify_bound(canonical_i28(math.radians(deg)), 300)
        assert report.passed and report.margin >= 0

    def test_phi_zero_margin_zero(self):
        report = verify_bound(canonical_i26(0.0), 300)
        assert report.margin == pytest.approx(0.0, abs=1e-12)

    def test_report_json(self):
        data = verify_bound(canonical_i28(1.0), 100).to_json_dict()
        assert data["kind"] == "i28" and data["grid_size"] == 100
        assert len(data["argmax_u"]) == 3 and len(data["argmax_v"]) == 3
        assert data["margin"] == data["bound"] - data["oracle_value"]


class TestPerLambdaInequality:
    @pytest.mark.parametrize("tag,canonical", [("i26", canonical_i26), ("i28", canonical_i28)])
    def test_correlation_part_bound(self, tag, canonical):
        kind = KINDS[tag]
        phi = math.radians(40.0)
        config = canonical(phi)
        rng = np.random.default_rng(3)
        us = rng.normal(size=(2000, 3))
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        vs = rng.normal(size=(2000, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        ceiling = kind.bound - kind.sine_coeff * math.sin(phi / 2.0)
        for u, v in zip(us, vs):
            point = LeggettEnsemblePoint(u=u, v=v)
            total = sum(
                pair_term_max(point, pair, config.alice[config.pairing[i]])
                for i, pair in enumerate(config.pairs)
            )
            assert total <= ceiling + 1e-12

    def test_mixtures_never_beat_single_points(self):
        # convexity lemma: a two-point mixture's achievable value is a convex
        # combination of the per-point maxima
        kind = KINDS["i26"]
        phi = math.radians(36.87)
        config = canonical_i26(phi)
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
            weight = rng.uniform()
            values = []
            for u, v in zip(*pts):
                point = LeggettEnsemblePoint(u=u / np.linalg.norm(u), v=v / np.linalg.norm(v))
                values.append(
                    sum(
                        pair_term_max(point, pair, config.alice[config.pairing[i]])
                        for i, pair in enumerate(config.pairs)
                    )
                    + kind.sine_coeff * math.sin(phi / 2.0)
                )
            mixed = weight * values[0] + (1 - weight) * values[1]
            assert mixed <= max(values) + 1e-12
            assert mixed <= kind.bound + 1e-12
