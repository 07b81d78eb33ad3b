import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_vectors
from leggettsim.geometry import (
    _TETRA,
    CANONICAL,
    X,
    Y,
    Z,
    DegenerateTensorError,
    SettingsConfig,
    adapt_to_state,
    canonical_i26,
    canonical_i28,
    fibonacci_sphere,
    geometric_factor,
    make_pair,
)
from leggettsim.inequalities import KINDS
from leggettsim.qstate import CorrelationTensor, correlation_tensor, werner

PHI_OPT_26 = 2 * math.atan(1 / 3)


def angle(a, b):
    return math.atan2(np.linalg.norm(np.cross(a, b)), float(a @ b))


def check_config_invariants(config):
    for pair in config.pairs:
        assert angle(pair.m, pair.m_prime) == pytest.approx(pair.phi, abs=1e-9)
        assert abs(pair.u @ pair.e_hat) < 1e-9
        c, s = math.cos(pair.phi / 2), math.sin(pair.phi / 2)
        assert np.allclose(pair.m, c * pair.u + s * pair.e_hat, atol=1e-12)
        assert np.allclose(pair.m_prime, c * pair.u - s * pair.e_hat, atol=1e-12)
        su = pair.m + pair.m_prime
        if np.linalg.norm(su) > 1e-9:
            assert np.linalg.norm(np.cross(su, pair.u)) < 1e-9
        de = pair.m - pair.m_prime
        if np.linalg.norm(de) > 1e-9:
            assert np.linalg.norm(np.cross(de, pair.e_hat)) < 1e-9


class TestMakePair:
    def test_coincident(self):
        pair = make_pair(Z, X, 0.0)
        assert np.allclose(pair.m, Z) and np.allclose(pair.m_prime, Z)

    def test_antipodal(self):
        pair = make_pair(Z, X, math.pi)
        assert np.allclose(pair.m, X, atol=1e-15)
        assert np.allclose(pair.m_prime, -X, atol=1e-15)

    def test_optimal_angle_coordinates(self):
        pair = make_pair(Z, X, math.radians(36.8699))
        assert np.allclose(pair.m, [0.31623, 0, 0.94868], atol=1e-5)
        assert np.allclose(pair.m_prime, [-0.31623, 0, 0.94868], atol=1e-5)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            make_pair(Z, Z, 0.5)

    def test_phi_out_of_range(self):
        with pytest.raises(ValueError):
            make_pair(Z, X, 3.5)

    @pytest.mark.parametrize("which", ["u", "e_hat"])
    def test_nan_rejected(self, which):
        vectors = {"u": Z, "e_hat": X, which: np.array([np.nan, 0.0, 0.0])}
        with pytest.raises(ValueError, match="unit vector"):
            make_pair(vectors["u"], vectors["e_hat"], 0.5)

    @given(unit_vectors(), st.floats(1e-6, math.pi - 1e-6))
    @settings(max_examples=50)
    def test_reconstruction(self, u, phi):
        # build an orthogonal e_hat from an arbitrary transversal direction
        seed = X if abs(u @ X) < 0.9 else Y
        e_hat = np.cross(u, seed)
        e_hat /= np.linalg.norm(e_hat)
        pair = make_pair(u, e_hat, phi)
        rebuilt = make_pair(pair.u, pair.e_hat, angle(pair.m, pair.m_prime))
        assert np.allclose(rebuilt.m, pair.m, atol=1e-10)
        assert np.allclose(rebuilt.m_prime, pair.m_prime, atol=1e-10)


class TestCanonicalConfigs:
    @given(st.floats(0, math.pi))
    @settings(max_examples=50)
    def test_i26_invariants(self, phi):
        config = canonical_i26(phi)
        assert len(config.alice) == 2 and len(config.pairs) == 3
        assert config.pairing == (0, 0, 1)
        check_config_invariants(config)
        e = [p.e_hat for p in config.pairs]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(e[i] @ e[j]) < 1e-9

    @given(st.floats(0, math.pi))
    @settings(max_examples=50)
    def test_i28_invariants(self, phi):
        config = canonical_i28(phi)
        assert len(config.alice) == 2 and len(config.pairs) == 4
        assert config.pairing == (0, 0, 1, 1)
        check_config_invariants(config)
        e = [p.e_hat for p in config.pairs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert e[i] @ e[j] == pytest.approx(-1 / 3, abs=1e-9)

    def test_i28_alice_orthogonal(self):
        config = canonical_i28(1.0)
        assert abs(config.alice[0] @ config.alice[1]) < 1e-12

    def test_i26_phi_zero_pairs_coincide(self):
        for pair in canonical_i26(0.0).pairs:
            assert np.allclose(pair.m, pair.m_prime, atol=1e-15)
            assert np.allclose(pair.m, pair.u, atol=1e-15)

    def test_registry_matches_kinds(self):
        # KINDS is numpy-free and CANONICAL is not, so they stay two tables
        assert CANONICAL.keys() == KINDS.keys()
        for tag, build in CANONICAL.items():
            config = build(0.5)
            assert config.kind is KINDS[tag]
            assert len(config.pairs) == KINDS[tag].num_pairs

    def test_phi_out_of_range(self):
        with pytest.raises(ValueError):
            canonical_i26(-0.1)
        with pytest.raises(ValueError):
            canonical_i28(4.0)


class TestAdaptToState:
    def test_singlet_flips_bisectors(self):
        singlet = CorrelationTensor(t=-np.eye(3), a=np.zeros(3), b=np.zeros(3))
        config = adapt_to_state(singlet, canonical_i26(PHI_OPT_26))
        for i, pair in enumerate(config.pairs):
            n = config.alice[config.pairing[i]]
            assert np.allclose(n, -pair.u, atol=1e-12)
            term = abs(n @ singlet.t @ pair.m + n @ singlet.t @ pair.m_prime)
            assert term == pytest.approx(2 * math.cos(PHI_OPT_26 / 2), abs=1e-12)

    def test_phi_minus_keeps_z(self):
        tensor = correlation_tensor(werner(1.0, "phi_minus"))
        config = adapt_to_state(tensor, canonical_i26(1.0))
        assert np.allclose(config.alice[0], Z, atol=1e-12)
        assert np.allclose(config.alice[1], -X, atol=1e-12)

    def test_scaled_tensor(self):
        tensor = CorrelationTensor(t=-0.9 * np.eye(3), a=np.zeros(3), b=np.zeros(3))
        config = adapt_to_state(tensor, canonical_i26(PHI_OPT_26))
        for i, pair in enumerate(config.pairs):
            n = config.alice[config.pairing[i]]
            term = abs(n @ tensor.t @ pair.m + n @ tensor.t @ pair.m_prime)
            assert term == pytest.approx(1.8 * math.cos(PHI_OPT_26 / 2), abs=1e-12)

    def test_degenerate_tensor(self):
        zero = CorrelationTensor(t=np.zeros((3, 3)), a=np.zeros(3), b=np.zeros(3))
        with pytest.raises(DegenerateTensorError):
            adapt_to_state(zero, canonical_i26(1.0))

    def test_nan_tensor(self):
        nan = CorrelationTensor(t=np.full((3, 3), np.nan), a=np.zeros(3), b=np.zeros(3))
        for build in CANONICAL.values():
            with pytest.raises(DegenerateTensorError):
                adapt_to_state(nan, build(0.5))


def random_direction_sets(seed, count):
    """``count`` seeded sets of 2-6 random unit vectors."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dirs = rng.normal(size=(int(rng.integers(2, 7)), 3))
        yield dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def facet_normals(dirs):
    """Normalised nonzero pairwise cross products of ``dirs``."""
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            n = np.cross(dirs[i], dirs[j])
            if np.linalg.norm(n) > 0.0:
                yield n / np.linalg.norm(n)


class TestGeometricFactor:
    def test_orthogonal_triad(self):
        assert geometric_factor([X, Y, Z]) == 1.0

    def test_tetrahedron(self):
        assert geometric_factor(_TETRA) == pytest.approx(
            4 / math.sqrt(6), abs=1e-15
        )

    @pytest.mark.parametrize("tag", sorted(CANONICAL))
    def test_sine_coeff_is_twice_canonical_factor(self, tag):
        e_hats = [pair.e_hat for pair in CANONICAL[tag](0.5).pairs]
        assert abs(KINDS[tag].sine_coeff - 2 * geometric_factor(e_hats)) <= 1e-15

    def test_not_above_any_facet_normal(self):
        for dirs in random_direction_sets(2024, 50):
            value = geometric_factor(list(dirs))
            for n in facet_normals(dirs):
                assert value <= np.abs(dirs @ n).sum() + 1e-12

    def test_not_above_a_dense_grid(self):
        # the facet normals hold the minimum: no grid point on the sphere is lower
        grid = fibonacci_sphere(20000)
        for dirs in random_direction_sets(7, 20):
            value = geometric_factor(list(dirs))
            assert value <= np.abs(grid @ dirs.T).sum(axis=1).min() + 1e-12

    def test_antiparallel_pair_is_zero(self):
        e = np.array([0.6, 0.0, 0.8])
        assert geometric_factor([e, -e]) == 0.0

    def test_coplanar_triple_is_zero(self):
        diagonal = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        assert geometric_factor([X, Y, diagonal]) == 0.0

    def test_single_direction(self):
        assert geometric_factor([Z]) == pytest.approx(0.0, abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        reference = geometric_factor(_TETRA)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            rotated = [q @ e for e in _TETRA]
            assert geometric_factor(rotated) == pytest.approx(
                reference, abs=1e-12
            )

    @given(unit_vectors())
    @settings(max_examples=25, deadline=None)
    def test_never_exceeds_explicit_point(self, v0):
        value = geometric_factor(_TETRA)
        upper = sum(abs(float(v0 @ e)) for e in _TETRA)
        assert value <= upper + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_factor([])


class TestSettingsConfigValidation:
    @pytest.mark.parametrize("pairing", [(0, 0), (0, 0, 1, 1)])
    def test_pairing_length(self, pairing):
        with pytest.raises(ValueError, match="pairing entries"):
            dataclasses.replace(canonical_i26(0.5), pairing=pairing)

    @pytest.mark.parametrize("pairing", [(0, 0, -1), (0, 0, 5), (0, 0, 2), (0, 0, 0.5)])
    def test_pairing_index_out_of_range(self, pairing):
        # -1 would silently pick the last Alice vector, 5 fail later as IndexError
        with pytest.raises(ValueError, match="outside range"):
            dataclasses.replace(canonical_i26(0.5), pairing=pairing)

    def test_no_pairs(self):
        with pytest.raises(ValueError, match="at least one setting pair"):
            SettingsConfig(alice=(Z,), pairs=(), pairing=(), kind=KINDS["i26"])

    @pytest.mark.parametrize("entry", [1.0, True])
    def test_pairing_entry_not_int(self, entry):
        # both pass the range test: 1.0 would fail later as TypeError, True
        # would silently pick Alice vector 1
        with pytest.raises(ValueError, match="must be int indices"):
            dataclasses.replace(canonical_i26(0.5), pairing=(0, 0, entry))

    def test_pairs_share_phi(self):
        config = canonical_i26(math.radians(30))
        odd = make_pair(X, Z, math.radians(80))
        with pytest.raises(ValueError, match="one phi"):
            dataclasses.replace(config, pairs=config.pairs[:2] + (odd,))

    def test_kind_is_an_inequality(self):
        with pytest.raises(ValueError, match="unknown inequality kind 'i26'"):
            dataclasses.replace(canonical_i26(0.5), kind="i26")

    @pytest.mark.parametrize(
        "alice, index, message",
        [
            # the scan would take u.n = 3 as a marginal and report a meaningless value
            ((3 * Z, X), 0, "n must be a unit vector"),
            ((Z, [0.0, 0.6, 0.6]), 1, "n must be a unit vector"),
            ((Z, [0.0, 0.0, float("nan")]), 1, "n must be a unit vector"),
            ((Z, [1.0, 0.0]), 1, "n must be a 3-vector"),
            (({"x": 1}, X), 0, ""),
        ],
    )
    def test_alice_not_unit(self, alice, index, message):
        with pytest.raises(ValueError, match=rf"^alice\[{index}\]: {message}"):
            dataclasses.replace(canonical_i26(0.5), alice=alice)

    def test_alice_kept_as_float_arrays(self):
        config = dataclasses.replace(canonical_i26(0.5), alice=([0, 0, 1], (1, 0, 0)))
        for n, expected in zip(config.alice, (Z, X)):
            assert isinstance(n, np.ndarray) and n.dtype == float
            assert n.tobytes() == expected.tobytes()


class TestSerialization:
    def test_missing_keys_named(self):
        with pytest.raises(ValueError, match="missing phi_deg, alice, pairs, pairing$"):
            SettingsConfig.from_json_dict({"kind": "i26"})

    def test_round_trip(self):
        config = canonical_i28(math.radians(44.42))
        data = json.loads(json.dumps(config.to_json_dict()))
        assert data["kind"] == "i28"
        assert data["pairing"] == [1, 1, 2, 2]
        rebuilt = SettingsConfig.from_json_dict(data)
        assert rebuilt.kind is KINDS["i28"]
        for a, b in zip(rebuilt.pairs, config.pairs):
            assert np.allclose(a.m, b.m, atol=1e-12)
            assert np.allclose(a.m_prime, b.m_prime, atol=1e-12)
        assert rebuilt.pairing == config.pairing

    @pytest.mark.parametrize("key", ["u", "e_hat"])
    def test_pair_missing_field(self, key):
        data = canonical_i26(0.5).to_json_dict()
        del data["pairs"][1][key]
        with pytest.raises(ValueError, match=rf"pairs\[1\]: missing {key}$"):
            SettingsConfig.from_json_dict(data)

    def test_pairs_not_a_list(self):
        data = canonical_i26(0.5).to_json_dict()
        data["pairs"] = "x"
        with pytest.raises(ValueError, match="pairs: expected a list, got 'x'"):
            SettingsConfig.from_json_dict(data)

    def test_phi_not_a_number(self):
        data = canonical_i26(0.5).to_json_dict()
        data["phi_deg"] = "30"
        with pytest.raises(ValueError, match="phi_deg: expected a number, got '30'"):
            SettingsConfig.from_json_dict(data)

    def test_alice_not_unit(self):
        # the scan would take u.n = 3 as a marginal and report a meaningless value
        data = canonical_i26(0.5).to_json_dict()
        data["alice"][0] = [0.0, 0.0, 3.0]
        with pytest.raises(ValueError, match=r"alice\[0\]: n must be a unit vector"):
            SettingsConfig.from_json_dict(data)

    def test_pairing_reported_as_in_the_file(self):
        data = canonical_i26(0.5).to_json_dict()
        data["pairing"] = [0, 1, 2]
        with pytest.raises(ValueError, match=r"pairing \[0, 1, 2\]: expected int indices in 1\.\.2"):
            SettingsConfig.from_json_dict(data)

    def test_unknown_kind(self):
        data = canonical_i26(0.5).to_json_dict()
        data["kind"] = "i99"
        with pytest.raises(ValueError, match="unknown inequality kind 'i99'"):
            SettingsConfig.from_json_dict(data)


def test_fibonacci_sphere_on_unit_sphere():
    pts = fibonacci_sphere(500)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert abs(pts.mean(axis=0)).max() < 0.05
