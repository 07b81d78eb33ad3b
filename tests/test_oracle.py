import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_pair, unit_vectors
from leggettsim import cli, oracle
from leggettsim.geometry import (
    CANONICAL,
    Z,
    SettingsConfig,
    canonical_i26,
    canonical_i28,
    fibonacci_sphere,
)
from leggettsim.inequalities import KINDS, quantum_value
from leggettsim.oracle import pair_term_max, verify_bound

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def probabilities(m_a, m_b, c):
    return [0.25 * (1 + alpha * m_a + beta * m_b + alpha * beta * c) for alpha, beta in SIGNS]


def admissible_interval(m_a, m_b):
    """(lo, hi) of the correlations C with every P(alpha, beta) >= 0.

    Each outcome gives 1 + alpha m_a + beta m_b + alpha beta C >= 0: a lower
    end for C where alpha beta = +1 and an upper end where it is -1.
    """
    lo, hi = -math.inf, math.inf
    for alpha, beta in SIGNS:
        edge = -(1 + alpha * m_a + beta * m_b) / (alpha * beta)
        if alpha * beta > 0:
            lo = max(lo, edge)
        else:
            hi = min(hi, edge)
    return lo, hi


def enumerated_pair_term_max(m_a, m_b, m_b_prime):
    """Largest |C + C'| over the corners of the box of admissible (C, C').

    The test reference for the kernel, from the definition: |C + C'| is
    convex, so its maximum over the box lies at a corner.
    """
    box = admissible_interval(m_a, m_b), admissible_interval(m_a, m_b_prime)
    return max(abs(c + c_prime) for c in box[0] for c_prime in box[1])


def setting_pair(u, e_hat, phi):
    """The (m, m') of the setting pair with bisector u, direction e_hat, at phi."""
    return one_pair(u, e_hat, phi).pairs[0]


def marginals(u, v, n, pair):
    """(u.n, v.m, v.m') of a hidden-variable point (u, v) for one pair (m, m')."""
    return float(u @ n), float(v @ pair[0]), float(v @ pair[1])


def point_total(u, v, config):
    """Sum of the pair terms' maxima at one hidden-variable point."""
    return sum(
        float(pair_term_max(*marginals(u, v, config.alice[i], pair)))
        for pair, i in zip(config.pairs, config.pairing)
    )


class TestCorrelationInterval:
    def test_unconstrained(self):
        assert admissible_interval(0.0, 0.0) == (-1.0, 1.0)

    def test_deterministic(self):
        assert admissible_interval(1.0, 1.0) == (1.0, 1.0)

    def test_opposite_marginals(self):
        assert admissible_interval(0.5, -0.5) == (-1.0, 0.0)

    @given(st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=200)
    def test_endpoints_feasible_exterior_infeasible(self, m_a, m_b):
        lo, hi = admissible_interval(m_a, m_b)
        assert lo <= hi + 1e-15
        for c in (lo, hi):
            assert min(probabilities(m_a, m_b, c)) >= -1e-12
        if hi + 1e-6 <= 1.0:
            assert min(probabilities(m_a, m_b, hi + 1e-6)) < 0
        if lo - 1e-6 >= -1.0:
            assert min(probabilities(m_a, m_b, lo - 1e-6)) < 0


class TestPairTermMax:
    def test_forced_correlations(self):
        pair = setting_pair(Z, X, 0.0)
        assert pair_term_max(*marginals(Z, Z, Z, pair)) == pytest.approx(2.0, abs=1e-12)

    def test_all_marginals_zero(self):
        pair = setting_pair(Z, X, 0.3)
        assert pair_term_max(*marginals(X, Y, Z, pair)) == pytest.approx(2.0, abs=1e-12)

    def test_difference_direction_bound(self):
        pair = setting_pair(Z, X, math.radians(60))
        assert pair_term_max(*marginals(Z, X, Z, pair)) <= 1.0 + 1e-12

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=500)
    def test_matches_enumeration(self, m_a, m_b, m_b_prime):
        value = pair_term_max(m_a, m_b, m_b_prime)
        assert value == pytest.approx(enumerated_pair_term_max(m_a, m_b, m_b_prime), abs=1e-14)

    def test_broadcasts(self):
        rng = np.random.default_rng(5)
        m_a = rng.uniform(-1, 1, size=(7, 1))
        m_b, m_b_prime = rng.uniform(-1, 1, size=(2, 1, 9))
        grid = pair_term_max(m_a, m_b, m_b_prime)
        assert grid.shape == (7, 9)
        for i, j in np.ndindex(grid.shape):
            assert grid[i, j] == pair_term_max(m_a[i, 0], m_b[0, j], m_b_prime[0, j])

    @given(unit_vectors(), unit_vectors(), unit_vectors(), st.floats(0.0, math.pi))
    @settings(max_examples=200, deadline=None)
    def test_analytic_bound(self, u, v, n, phi):
        e_seed = X if abs(u @ X) < 0.9 else Y
        e_hat = np.cross(u, e_seed)
        e_hat /= np.linalg.norm(e_hat)
        pair = setting_pair(u, e_hat, phi)
        value = pair_term_max(*marginals(u, v, n, pair))
        assert value <= 2.0 - abs(float(v @ (pair[0] - pair[1]))) + 1e-12

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
        pair = setting_pair(bisector, e_hat, phi)
        value = pair_term_max(*marginals(u, v, n, pair))
        assert value <= 2.0 - abs(float(v @ (pair[0] - pair[1]))) + 1e-12


class TestOracleMax:
    def test_phi_zero_saturates(self):
        value = verify_bound(canonical_i26(0.0), 500).oracle_value
        assert value == pytest.approx(6.0, abs=1e-12)

    def test_i26_below_quantum(self):
        phi = math.radians(36.8699)
        value = verify_bound(canonical_i26(phi), 500).oracle_value
        assert value <= 6.0 + 1e-9
        assert value < quantum_value(KINDS["i26"], phi, 1.0)

    def test_i28_below_quantum(self):
        phi = math.radians(44.4153)
        value = verify_bound(canonical_i28(phi), 500).oracle_value
        assert value <= 8.0 + 1e-9
        assert value < quantum_value(KINDS["i28"], phi, 1.0)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            verify_bound(canonical_i26(1.0), 10)

    def test_refinement_improves(self):
        config = canonical_i26(math.radians(36.87))
        coarse = verify_bound(config, 100).oracle_value
        fine = verify_bound(config, 400).oracle_value
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

    def test_numpy_int_grid_size_reported_as_int(self):
        report = verify_bound(canonical_i28(1.0), np.int64(100))
        assert type(report.grid_size) is int
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data == verify_bound(canonical_i28(1.0), 100).to_json_dict()


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
            assert point_total(u, v, config) <= ceiling + 1e-12

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
                u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
                values.append(point_total(u, v, config) + kind.sine_coeff * math.sin(phi / 2.0))
            mixed = weight * values[0] + (1 - weight) * values[1]
            assert mixed <= max(values) + 1e-12
            assert mixed <= kind.bound + 1e-12


def exhaustive_scan(config, grid_size):
    """Every cell of the (u, v) grid: the reference for the pruned scan."""
    kind = config.kind
    u_grid = fibonacci_sphere(grid_size)
    v_grid = fibonacci_sphere(grid_size)
    total = np.zeros((grid_size, grid_size))
    for (m, m_prime), i in zip(config.pairs, config.pairing):
        m_a = (u_grid @ config.alice[i])[:, None]
        m_b = (v_grid @ m)[None, :]
        m_b_prime = (v_grid @ m_prime)[None, :]
        total += pair_term_max(m_a, m_b, m_b_prime)
    total += kind.sine_coeff * math.sin(config.phi / 2.0)
    flat = int(np.argmax(total))  # first occurrence: lowest-index tie-break
    ui, vi = divmod(flat, grid_size)
    return float(total[ui, vi]), u_grid[ui], v_grid[vi]


def assert_scan_matches_exhaustive(config, grid_size):
    report = verify_bound(config, grid_size)
    value, u, v = exhaustive_scan(config, grid_size)
    assert report.oracle_value == value
    assert np.array_equal(report.argmax_u, u)
    assert np.array_equal(report.argmax_v, v)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_config(seed):
    """Random Alice vectors, bisectors, difference directions and pairing.

    The kind has the sine coefficient of i26 or i28 and the random pair
    count, so its tag and bound are those of neither.
    """
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, math.pi)
    alice = tuple(random_unit(rng) for _ in range(rng.integers(1, 4)))
    us, e_hats = [], []
    for _ in range(rng.integers(2, 6)):
        u = random_unit(rng)
        e_hat = np.cross(u, random_unit(rng))
        us.append(u)
        e_hats.append(e_hat / np.linalg.norm(e_hat))
    pairing = tuple(int(rng.integers(len(alice))) for _ in us)
    kind = (KINDS["i26"], KINDS["i28"])[int(rng.integers(2))]
    kind = dataclasses.replace(kind, tag=f"{kind.tag}_{len(us)}_pairs", num_pairs=len(us))
    return SettingsConfig(alice=alice, u=us, e_hat=e_hats, pairing=pairing, phi=phi, kind=kind)


# phi = 0 makes every column ceiling tie, so the scan visits all columns
SCAN_DEGREES = (0.0, 10.0, 36.87, 44.42, 90.0, 180.0) + tuple(
    np.random.default_rng(2008).uniform(0.0, 180.0, 4)
)


# certify_grid traffic: grid 2000 at seeded angles in (0, 90) degrees, where
# one to three columns reach the grid maximum's ceiling
GRID_2000_DEGREES = tuple(np.random.default_rng(24).uniform(0.5, 90.0, 3))


@pytest.fixture(params=[1, 7, 64])
def chunk(request, monkeypatch):
    # the cap of the chunks, which grow 1, 2, 4, ... up to it; at cap 1 every
    # chunk is one column, so the stopping rule and the cross-chunk tie-break
    # decide the result, and at 64 the schedule is the one verify_bound runs
    monkeypatch.setattr(oracle, "_CHUNK", request.param)


@pytest.mark.usefixtures("chunk")
class TestPrunedScan:
    @pytest.mark.parametrize("grid_size", [50, 97, 300, 500])
    @pytest.mark.parametrize("deg", SCAN_DEGREES)
    @pytest.mark.parametrize("tag", ["i26", "i28"])
    def test_canonical_matches_exhaustive(self, tag, deg, grid_size):
        assert_scan_matches_exhaustive(CANONICAL[tag](math.radians(deg)), grid_size)

    @pytest.mark.parametrize("tag,deg", [("i26", 0.0), ("i28", 44.42)])
    def test_canonical_matches_exhaustive_grid_2000(self, tag, deg):
        assert_scan_matches_exhaustive(CANONICAL[tag](math.radians(deg)), 2000)

    @pytest.mark.parametrize("deg", GRID_2000_DEGREES)
    @pytest.mark.parametrize("tag", ["i26", "i28"])
    def test_seeded_angles_match_exhaustive_grid_2000(self, tag, deg):
        assert_scan_matches_exhaustive(CANONICAL[tag](math.radians(deg)), 2000)

    @pytest.mark.parametrize("grid_size", [97, 300])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_config_matches_exhaustive(self, seed, grid_size):
        assert_scan_matches_exhaustive(random_config(seed), grid_size)

    @pytest.mark.parametrize("deg", [0.01, 0.1])
    @pytest.mark.parametrize("tag", ["i26", "i28"])
    def test_small_angles_match_exhaustive_grid_500(self, tag, deg):
        # many column ceilings nearly tie, so the stable sort of the columns
        # that reach the first column's best cell decides the visiting order
        assert_scan_matches_exhaustive(CANONICAL[tag](math.radians(deg)), 500)

    @pytest.mark.parametrize(
        "grid_size,deg,bisector,e_hat",
        [(64, 60.0, Y, -Z), (100, 90.0, -X, Z), (60, 180.0, -Y, -Z)],
    )
    def test_cross_column_ties_match_exhaustive(self, grid_size, deg, bisector, e_hat):
        # the grid maximum is hit in two columns, and the column visited
        # second holds the tie with the lowest row-major index
        assert_scan_matches_exhaustive(one_pair(bisector, e_hat, math.radians(deg)), grid_size)


def scan_peak_bytes(config, grid_size):
    tracemalloc.start()
    try:
        verify_bound(config, grid_size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanLimits:
    def test_verify_bound_grid_size_validation(self):
        with pytest.raises(ValueError):
            verify_bound(canonical_i26(1.0), 49)

    def test_grid_size_above_limit_rejected_before_allocating(self, monkeypatch):
        grids = []
        monkeypatch.setattr(oracle, "fibonacci_sphere", grids.append)
        with pytest.raises(ValueError, match=f"<= {oracle.MAX_GRID_SIZE}"):
            verify_bound(canonical_i26(1.0), oracle.MAX_GRID_SIZE + 1)
        with pytest.raises(ValueError):
            verify_bound(canonical_i26(1.0), 10**12)
        assert grids == []

    @pytest.mark.parametrize("grid_size", [2000.0, True, np.float64(100), "500"])
    def test_non_int_grid_size_rejected_before_allocating(self, grid_size, monkeypatch):
        grids = []
        monkeypatch.setattr(oracle, "fibonacci_sphere", grids.append)
        oracle._grid.cache_clear()
        with pytest.raises(ValueError, match="grid_size must be an int"):
            verify_bound(canonical_i26(1.0), grid_size)
        assert grids == []

    def test_peak_memory_bounded_at_grid_4000(self):
        # the growing chunks stop after one to three columns here (0.7 MB)
        assert scan_peak_bytes(canonical_i28(math.radians(44.42)), 4000) <= 4 * 2**20

    def test_peak_memory_bounded_at_grid_4000_phi_zero(self):
        # every column ceiling ties, so every chunk is scanned up to full width
        assert scan_peak_bytes(canonical_i26(0.0), 4000) <= 32 * 2**20

    @pytest.mark.parametrize("tag,deg", [("i26", 36.87), ("i28", 44.42)])
    def test_grid_2000_evaluates_at_most_three_columns(self, tag, deg, monkeypatch):
        # each chunk calls the kernel once per pair with its v-columns
        widths = []

        def counted(m_a, m_b, m_b_prime):
            widths.append(np.shape(m_b)[-1])
            return pair_term_max(m_a, m_b, m_b_prime)

        monkeypatch.setattr(oracle, "pair_term_max", counted)
        config = CANONICAL[tag](math.radians(deg))
        verify_bound(config, 2000)
        assert sum(widths) <= 3 * len(config.pairs)

    @given(
        unit_vectors(), unit_vectors(), unit_vectors(), unit_vectors(), unit_vectors(),
        st.floats(0.0, math.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_enumeration_under_ceiling(self, u, v, n, bisector, other, phi):
        e_hat = np.cross(bisector, other)
        if np.linalg.norm(e_hat) < 1e-3:
            e_hat = np.cross(bisector, X if abs(bisector @ X) < 0.9 else Y)
        e_hat /= np.linalg.norm(e_hat)
        pair = setting_pair(bisector, e_hat, phi)
        m_a, m_b, m_b_prime = marginals(u, v, n, pair)
        term = float(pair_term_max(m_a, m_b, m_b_prime))
        assert term == pytest.approx(enumerated_pair_term_max(m_a, m_b, m_b_prime), abs=1e-14)
        # the column ceiling the pruned scan relies on
        assert term <= 2.0 - abs(m_b - m_b_prime) + 1e-12


@pytest.fixture
def grid_builds(monkeypatch):
    """The sizes passed to fibonacci_sphere, with the grid cache emptied first."""
    sizes = []

    def counted(n):
        sizes.append(n)
        return fibonacci_sphere(n)

    monkeypatch.setattr(oracle, "fibonacci_sphere", counted)
    oracle._grid.cache_clear()
    yield sizes
    oracle._grid.cache_clear()


class TestGridCache:
    def test_one_build_per_grid_size(self, grid_builds):
        verify_bound(canonical_i26(math.radians(36.87)), 2000)
        verify_bound(canonical_i28(math.radians(44.42)), 2000)
        assert grid_builds == [2000]

    def test_one_grid_held(self, grid_builds):
        config = canonical_i28(math.radians(44.42))
        for grid_size in (2000, 4000, 2000):
            verify_bound(config, grid_size)
        assert grid_builds == [2000, 4000, 2000]

    def test_cli_angles_share_one_grid(self, grid_builds, capsys):
        argv = ["verify", "--inequality", "i26", "--phi", "10", "--phi", "20", "--grid-size", "300"]
        assert cli.main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)) == 2
        assert grid_builds == [300]

    def test_report_vectors_are_copies(self, grid_builds):
        config = canonical_i26(math.radians(36.87))
        first = verify_bound(config, 300)
        expected = first.argmax_u.copy(), first.argmax_v.copy()
        first.argmax_u[:] = 0.0
        first.argmax_v[:] = 0.0
        second = verify_bound(config, 300)
        assert grid_builds == [300]
        assert np.array_equal(second.argmax_u, expected[0])
        assert np.array_equal(second.argmax_v, expected[1])
        assert not oracle._grid(300).flags.writeable
