import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import correlation, evaluate
from leggettsim.geometry import adapt_to_state, canonical_i26, canonical_i28
from leggettsim.inequalities import (
    I26,
    I28,
    KINDS,
    InequalityKind,
    f_min,
    max_violation,
    quantum_value,
    sigma_violation,
    v_min,
    violation_region,
)
from leggettsim.qstate import correlation_tensor, werner

PHI_OPT_26 = 2 * math.atan(1 / 3)
PHI_OPT_28 = 2 * math.atan(1 / math.sqrt(6))


class TestKinds:
    def test_constants(self):
        assert (I26.num_pairs, I26.bound, I26.sine_coeff) == (3, 6.0, 2.0)
        assert (I28.num_pairs, I28.bound) == (4, 8.0)
        assert I28.sine_coeff == pytest.approx(3.2659863237109046, abs=1e-15)
        assert set(KINDS) == {"i26", "i28"}

    def test_bound_is_two_per_pair(self):
        kind = InequalityKind(tag="i210", num_pairs=5, sine_coeff=1.0)
        assert kind.bound == 10.0
        assert "bound" not in {f.name for f in dataclasses.fields(InequalityKind)}


class TestEvaluate:
    """The scalar reference ``evaluate`` of the tests."""

    def test_boundary_equality(self):
        result = evaluate(I26, 0.0, [(1.0, 1.0)] * 3)
        assert result["value"] == pytest.approx(6.0, abs=1e-12)
        assert not result["violated"]

    def test_i26_maximal(self):
        c = -math.cos(PHI_OPT_26 / 2)
        result = evaluate(I26, PHI_OPT_26, [(c, c)] * 3)
        assert result["value"] == pytest.approx(math.sqrt(40), abs=1e-12)
        assert result["violated"]

    def test_i28_maximal(self):
        c = -math.cos(PHI_OPT_28 / 2)
        result = evaluate(I28, PHI_OPT_28, [(c, c)] * 4)
        assert result["value"] == pytest.approx(8 * math.sqrt(7 / 6), abs=1e-12)
        assert result["violated"]

    def test_value_identity(self):
        result = evaluate(I26, 1.0, [(0.5, -0.2), (0.9, 0.8), (-0.3, -0.4)])
        assert result["value"] == pytest.approx(
            math.fsum(result["pair_terms"]) + 2 * math.sin(0.5), abs=1e-12
        )
        assert all(0 <= t <= 2 for t in result["pair_terms"])

    def test_arity_error(self):
        with pytest.raises(ValueError):
            evaluate(I26, 1.0, [(0.5, 0.5)] * 4)

    def test_out_of_range_correlation(self):
        with pytest.raises(ValueError):
            evaluate(I26, 1.0, [(1.5, 0.0), (0.0, 0.0), (0.0, 0.0)])

    def test_json(self):
        data = evaluate(I26, PHI_OPT_26, [(0.9, 0.9)] * 3)
        assert data["kind"] == "i26" and data["bound"] == 6.0
        assert len(data["pair_terms"]) == 3


class TestQuantumValue:
    def test_phi_zero(self):
        assert quantum_value(I26, 0.0, 0.9) == pytest.approx(5.4, abs=1e-12)

    def test_i26_optimum(self):
        assert quantum_value(I26, PHI_OPT_26, 1.0) == pytest.approx(
            math.sqrt(40), abs=1e-12
        )

    def test_i28_right_angle(self):
        expected = 8 * math.cos(math.pi / 4) + (8 / math.sqrt(6)) * math.sin(math.pi / 4)
        assert quantum_value(I28, math.pi / 2, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(7.966, abs=1e-3)

    @given(
        st.sampled_from(["i26", "i28"]),
        st.floats(0.01, math.pi - 0.01),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_adapted_state_evaluation(self, tag, phi, visibility):
        kind = KINDS[tag]
        canonical = canonical_i26 if tag == "i26" else canonical_i28
        state = werner(visibility, "phi_minus")
        config = adapt_to_state(correlation_tensor(state), canonical(phi))
        correlations = []
        for (m, m_prime), i in zip(config.pairs, config.pairing):
            n = config.alice[i]
            correlations.append((correlation(state, n, m), correlation(state, n, m_prime)))
        value = evaluate(kind, phi, correlations)["value"]
        assert value == pytest.approx(quantum_value(kind, phi, visibility), abs=1e-10)

    @given(st.floats(0, math.pi), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100)
    def test_monotone_in_visibility(self, phi, v1, v2):
        lo, hi = sorted((v1, v2))
        assert quantum_value(I26, phi, lo) <= quantum_value(I26, phi, hi) + 1e-12


class TestMaxViolation:
    def test_i26(self):
        phi_star, value = max_violation(I26, 1.0)
        assert math.degrees(phi_star) == pytest.approx(36.8699, abs=1e-4)
        assert value == pytest.approx(math.sqrt(40), abs=1e-12)

    def test_i28(self):
        phi_star, value = max_violation(I28, 1.0)
        assert math.degrees(phi_star) == pytest.approx(44.4153, abs=1e-4)
        assert value == pytest.approx(8 * math.sqrt(7 / 6), abs=1e-12)

    def test_threshold_visibility_touches_bound(self):
        _, value = max_violation(I26, 2 * math.sqrt(2) / 3)
        assert value == pytest.approx(6.0, abs=1e-9)

    def test_degenerate_v0(self):
        phi_star, value = max_violation(I26, 0.0)
        assert phi_star == pytest.approx(math.pi)
        assert value == pytest.approx(2.0)

    @pytest.mark.parametrize("kind", [I26, I28])
    def test_is_supremum_on_grid(self, kind):
        _, value = max_violation(kind, 0.87)
        grid_max = max(
            quantum_value(kind, i * math.pi / 99999, 0.87) for i in range(100000)
        )
        assert value >= grid_max - 1e-12
        assert value == pytest.approx(grid_max, abs=1e-8)


class TestViolationRegion:
    def test_i26_full_visibility(self):
        lo, hi = violation_region(I26, 1.0)
        assert lo == pytest.approx(0.0, abs=1e-10)
        assert math.degrees(hi) == pytest.approx(73.7398, abs=1e-4)

    def test_i28_full_visibility(self):
        lo, hi = violation_region(I28, 1.0)
        assert lo == pytest.approx(0.0, abs=1e-10)
        assert math.degrees(hi) == pytest.approx(88.8306, abs=1e-4)

    def test_i26_reduced_visibility(self):
        # frozen from an independent brentq root find on 5.7cos(x) + 2sin(x) = 6
        lo, hi = violation_region(I26, 0.95)
        assert math.degrees(lo) == pytest.approx(25.360767, abs=1e-4)
        assert math.degrees(hi) == pytest.approx(51.978467, abs=1e-4)

    def test_endpoints_on_bound(self):
        lo, hi = violation_region(I28, 0.97)
        assert abs(quantum_value(I28, lo, 0.97) - 8.0) < 1e-8
        assert abs(quantum_value(I28, hi, 0.97) - 8.0) < 1e-8

    @pytest.mark.parametrize("kind", [I26, I28])
    @pytest.mark.parametrize("v", [0.92, 0.95, 0.97, 0.99, 1.0])
    def test_closed_form_endpoints_exact(self, kind, v):
        region = violation_region(kind, v)
        if region is None:
            assert v < v_min(kind)
            return
        lo, hi = region
        if lo > 0.0:
            assert abs(quantum_value(kind, lo, v) - kind.bound) <= 4e-15
        else:
            assert quantum_value(kind, 0.0, v) >= kind.bound
        assert abs(quantum_value(kind, hi, v) - kind.bound) <= 4e-15
        assert hi < math.pi

    def test_empty_below_threshold(self):
        assert violation_region(I26, 0.9) is None
        assert violation_region(I28, 0.85) is None

    @pytest.mark.parametrize("kind", [I26, I28])
    def test_v_min_is_region_infimum(self, kind):
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if violation_region(kind, mid) is None:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(v_min(kind), abs=1e-6)


class TestThresholds:
    def test_i26(self):
        assert v_min(I26) == pytest.approx(0.942809, abs=1e-6)
        assert f_min(I26) == pytest.approx(0.978318, abs=1e-6)

    def test_i28(self):
        assert v_min(I28) == pytest.approx(0.912871, abs=1e-6)
        assert f_min(I28) == pytest.approx(0.966775, abs=1e-6)

    @pytest.mark.parametrize("kind", [I26, I28])
    def test_consistency_with_max_violation(self, kind):
        v = v_min(kind)
        phi_star, _ = max_violation(kind, v)
        assert quantum_value(kind, phi_star, v) == pytest.approx(kind.bound, abs=1e-9)


class TestSigmaViolation:
    def test_paper_arithmetic(self):
        assert sigma_violation(6.136, 0.034, I26) == pytest.approx(4.0, abs=0.01)
        assert sigma_violation(6.382, 0.035, I26) == pytest.approx(10.91, abs=0.01)
        assert sigma_violation(8.729, 0.047, I28) == pytest.approx(15.51, abs=0.01)

    def test_exact_expression(self):
        assert sigma_violation(6.136, 0.034, I26) == (6.136 - 6) / 0.034

    def test_negative_allowed(self):
        assert sigma_violation(5.9, 0.05, I26) < 0

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            sigma_violation(6.1, 0.0, I26)
