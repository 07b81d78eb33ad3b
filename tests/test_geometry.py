import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ONE_PAIR, one_pair, unit_vectors
from leggettsim import geometry
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
    pair_stacks,
)
from leggettsim.expsim import run_experiments
from leggettsim.inequalities import KINDS
from leggettsim.qstate import CorrelationTensor, correlation_tensor, werner

PHI_OPT_26 = 2 * math.atan(1 / 3)


def angle(a, b):
    return math.atan2(np.linalg.norm(np.cross(a, b)), float(a @ b))


def check_config_invariants(config):
    assert config.pairs.shape == (len(config.u), 2, 3)
    c, s = math.cos(config.phi / 2), math.sin(config.phi / 2)
    for (m, m_prime), u, e_hat in zip(config.pairs, config.u, config.e_hat):
        assert angle(m, m_prime) == pytest.approx(config.phi, abs=1e-9)
        assert abs(u @ e_hat) < 1e-9
        assert np.allclose(m, c * u + s * e_hat, atol=1e-12)
        assert np.allclose(m_prime, c * u - s * e_hat, atol=1e-12)
        su = m + m_prime
        if np.linalg.norm(su) > 1e-9:
            assert np.linalg.norm(np.cross(su, u)) < 1e-9
        de = m - m_prime
        if np.linalg.norm(de) > 1e-9:
            assert np.linalg.norm(np.cross(de, e_hat)) < 1e-9


class TestMakePair:
    """One setting pair (m, m'), built as a configuration of one pair."""

    def test_coincident(self):
        m, m_prime = one_pair(Z, X, 0.0).pairs[0]
        assert np.allclose(m, Z) and np.allclose(m_prime, Z)

    def test_antipodal(self):
        m, m_prime = one_pair(Z, X, math.pi).pairs[0]
        assert np.allclose(m, X, atol=1e-15)
        assert np.allclose(m_prime, -X, atol=1e-15)

    def test_optimal_angle_coordinates(self):
        m, m_prime = one_pair(Z, X, math.radians(36.8699)).pairs[0]
        assert np.allclose(m, [0.31623, 0, 0.94868], atol=1e-5)
        assert np.allclose(m_prime, [-0.31623, 0, 0.94868], atol=1e-5)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match=r"^pairs\[0\]: u and e_hat must be orthogonal"):
            one_pair(Z, Z, 0.5)

    def test_phi_out_of_range(self):
        with pytest.raises(ValueError, match=r"phi must lie in \[0, pi\]"):
            one_pair(Z, X, 3.5)

    @pytest.mark.parametrize("which", ["u", "e_hat"])
    def test_nan_rejected(self, which):
        vectors = {"u": Z, "e_hat": X, which: np.array([np.nan, 0.0, 0.0])}
        with pytest.raises(ValueError, match=rf"^pairs\[0\]: {which} must be a unit vector"):
            one_pair(vectors["u"], vectors["e_hat"], 0.5)

    @given(unit_vectors(), st.floats(1e-6, math.pi - 1e-6))
    @settings(max_examples=50)
    def test_reconstruction(self, u, phi):
        # build an orthogonal e_hat from an arbitrary transversal direction
        seed = X if abs(u @ X) < 0.9 else Y
        e_hat = np.cross(u, seed)
        e_hat /= np.linalg.norm(e_hat)
        config = one_pair(u, e_hat, phi)
        m, m_prime = config.pairs[0]
        rebuilt = one_pair(config.u[0], config.e_hat[0], angle(m, m_prime))
        assert np.allclose(rebuilt.pairs, config.pairs, atol=1e-10)


class TestCanonicalConfigs:
    @given(st.floats(0, math.pi))
    @settings(max_examples=50)
    def test_i26_invariants(self, phi):
        config = canonical_i26(phi)
        assert len(config.alice) == 2 and len(config.pairs) == 3
        assert config.pairing == (0, 0, 1)
        check_config_invariants(config)
        e = config.e_hat
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
        e = config.e_hat
        for i in range(4):
            for j in range(i + 1, 4):
                assert e[i] @ e[j] == pytest.approx(-1 / 3, abs=1e-9)

    def test_i28_alice_orthogonal(self):
        config = canonical_i28(1.0)
        assert abs(config.alice[0] @ config.alice[1]) < 1e-12

    def test_i26_phi_zero_pairs_coincide(self):
        config = canonical_i26(0.0)
        for (m, m_prime), u in zip(config.pairs, config.u):
            assert np.allclose(m, m_prime, atol=1e-15)
            assert np.allclose(m, u, atol=1e-15)

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
        for (m, m_prime), u, i in zip(config.pairs, config.u, config.pairing):
            n = config.alice[i]
            assert np.allclose(n, -u, atol=1e-12)
            term = abs(n @ singlet.t @ m + n @ singlet.t @ m_prime)
            assert term == pytest.approx(2 * math.cos(PHI_OPT_26 / 2), abs=1e-12)

    def test_phi_minus_keeps_z(self):
        tensor = correlation_tensor(werner(1.0, "phi_minus"))
        config = adapt_to_state(tensor, canonical_i26(1.0))
        assert np.allclose(config.alice[0], Z, atol=1e-12)
        assert np.allclose(config.alice[1], -X, atol=1e-12)

    def test_scaled_tensor(self):
        tensor = CorrelationTensor(t=-0.9 * np.eye(3), a=np.zeros(3), b=np.zeros(3))
        config = adapt_to_state(tensor, canonical_i26(PHI_OPT_26))
        for (m, m_prime), i in zip(config.pairs, config.pairing):
            n = config.alice[i]
            term = abs(n @ tensor.t @ m + n @ tensor.t @ m_prime)
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
        e_hats = CANONICAL[tag](0.5).e_hat
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
            SettingsConfig(alice=(Z,), u=(), e_hat=(), pairing=(), phi=0.5, kind=KINDS["i26"])

    def test_pair_count_mismatch(self):
        with pytest.raises(ValueError, match="^2 difference directions for 3 bisectors$"):
            dataclasses.replace(canonical_i26(0.5), e_hat=(X, Y))

    @pytest.mark.parametrize("tag, count", [("i26", 1), ("i26", 4), ("i28", 3), ("i28", 5)])
    def test_pair_count_of_kind(self, tag, count):
        # the oracle would certify such an expression against the wrong bound
        kind = KINDS[tag]
        message = f"^{tag} needs {kind.num_pairs} setting pairs, got {count}$"
        with pytest.raises(ValueError, match=message):
            SettingsConfig(
                alice=(Z,), u=(Z,) * count, e_hat=(X,) * count, pairing=(0,) * count, phi=0.5,
                kind=kind,
            )

    @pytest.mark.parametrize(
        "u, e_hat, index, message",
        [
            ((Z, 2 * Z, X), (X, Y, Z), 1, "u must be a unit vector"),
            ((Z, Z, X), (X, Y, [0.0, 0.0]), 2, "e_hat must be a 3-vector"),
            ((Z, Z, X), (X, Y, X), 2, "u and e_hat must be orthogonal, dot = 1.0"),
        ],
    )
    def test_pair_rejected(self, u, e_hat, index, message):
        with pytest.raises(ValueError, match=rf"^pairs\[{index}\]: {message}"):
            dataclasses.replace(canonical_i26(0.5), u=u, e_hat=e_hat)

    def test_pair_off_sphere_between_angles(self):
        # |u|, |e_hat| and u . e_hat each lie within their tolerance, but at
        # phi = pi/2 the setting m has |m| = 1 + 1.485e-9, which the sampler
        # would reject
        s = 1.0 + 0.99e-9
        e_hat = (s * np.array([1.0, 0.0, 0.99e-9]), s * np.array([0.0, 1.0, 0.99e-9]), Z)
        message = r"^pairs\[0\]: m must be a unit vector, \|m\| = 1.00000000148"
        with pytest.raises(ValueError, match=message):
            SettingsConfig(
                alice=(Z, X), u=(s * Z, s * Z, X), e_hat=e_hat, pairing=(0, 0, 1),
                phi=math.pi / 2, kind=KINDS["i26"],
            )

    def test_accepted_pairs_sample_at_every_phi(self):
        # pairs at the edges of the unit and orthogonality tolerances: each
        # one the constructor accepts samples at every angle
        phis = np.linspace(0.0, math.pi, 181).tolist()
        scales, dots = (1.0 - 0.99e-9, 1.0, 1.0 + 0.99e-9), (-0.99e-9, 0.0, 0.99e-9)
        accepted = rejected = 0
        for s_u, s_e, dot in itertools.product(scales, scales, dots):
            try:
                config = one_pair(s_u * Z, s_e * np.array([1.0, 0.0, dot]), 0.0)
            except ValueError as exc:
                assert "m must be a unit vector" in str(exc)
                rejected += 1
                continue
            run_experiments(werner(0.9), config, phis, 1, 0)
            accepted += 1
        assert accepted and rejected

    @pytest.mark.parametrize("entry", [1.0, True])
    def test_pairing_entry_not_int(self, entry):
        # both pass the range test: 1.0 would fail later as TypeError, True
        # would silently pick Alice vector 1
        with pytest.raises(ValueError, match="must be int indices"):
            dataclasses.replace(canonical_i26(0.5), pairing=(0, 0, entry))

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
        assert np.allclose(rebuilt.pairs, config.pairs, atol=1e-12)
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

    @pytest.mark.parametrize("build", [canonical_i26, canonical_i28])
    def test_pair_dropped(self, build):
        config = build(0.5)
        data = config.to_json_dict()
        del data["pairs"][-1], data["pairing"][-1]
        tag, count = config.kind.tag, config.kind.num_pairs
        message = f"^settings config: {tag} needs {count} setting pairs, got {count - 1}$"
        with pytest.raises(ValueError, match=message):
            SettingsConfig.from_json_dict(data)

    def test_kind_of_other_pair_count(self):
        data = canonical_i26(0.5).to_json_dict()
        data["kind"] = "i28"
        with pytest.raises(ValueError, match="^settings config: i28 needs 4 setting pairs, got 3$"):
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


def random_config(rng, kind, phi):
    """A configuration of ``kind``: random bisectors, directions orthogonal
    to them, Alice vectors and pairing."""
    u = [v / np.linalg.norm(v) for v in rng.normal(size=(kind.num_pairs, 3))]
    e_hat = [np.cross(v, rng.normal(size=3)) for v in u]
    alice = [n / np.linalg.norm(n) for n in rng.normal(size=(3, 3))]
    pairing = tuple(int(i) for i in rng.integers(0, len(alice), size=kind.num_pairs))
    return SettingsConfig(
        alice=alice,
        u=u,
        e_hat=[e / np.linalg.norm(e) for e in e_hat],
        pairing=pairing,
        phi=phi,
        kind=kind,
    )


def assert_same_config(x, y):
    """x and y hold the same arrays bit for bit, the same phi, pairing and kind."""
    assert type(x) is type(y) is SettingsConfig
    assert x.kind is y.kind and x.pairing == y.pairing and x.phi == y.phi
    for name in ("alice", "u", "e_hat", "pairs"):
        a, b = getattr(x, name), getattr(y, name)
        assert a.dtype == b.dtype == float and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def reference_pairs(config):
    """Each pair's (m, m') computed on its own, from its u and e_hat at config.phi."""
    c, s = math.cos(config.phi / 2.0), math.sin(config.phi / 2.0)
    return [(c * u + s * e_hat, c * u - s * e_hat) for u, e_hat in zip(config.u, config.e_hat)]


class TestAt:
    """``pair_stacks``: a configuration's pairs at other angles."""

    @pytest.mark.parametrize("tag", ["i26", "i28"])
    def test_random_configs_equal_make_pair(self, tag):
        # each row is the pairs of the configuration built at its phi, bit for bit
        rng = np.random.default_rng(150)
        for _ in range(40):
            config = random_config(rng, KINDS[tag], rng.uniform(0.0, math.pi))
            phis = [*rng.uniform(0.0, math.pi, size=5), 0.0, math.pi]
            stacks = pair_stacks(config.u, config.e_hat, phis)
            assert stacks.shape == (len(phis), len(config.pairs), 2, 3)
            for phi, pairs in zip(phis, stacks):
                built = dataclasses.replace(config, phi=phi)
                assert pairs.tobytes() == built.pairs.tobytes()
                for (m, m_prime), (ref, ref_prime) in zip(pairs, reference_pairs(built)):
                    assert m.tobytes() == ref.tobytes()
                    assert m_prime.tobytes() == ref_prime.tobytes()

    @pytest.mark.parametrize("build", [canonical_i26, canonical_i28])
    @given(st.floats(0, math.pi), st.floats(0, math.pi))
    @settings(max_examples=40)
    def test_canonical_equals_build_at_phi(self, build, phi0, phi):
        config = build(phi0)
        (pairs,) = pair_stacks(config.u, config.e_hat, [phi])
        assert pairs.tobytes() == build(phi).pairs.tobytes()

    def test_adapted_keeps_alice(self):
        # the canonical bisectors do not depend on phi, so a sweep adapts once
        tensor = correlation_tensor(werner(0.9))
        for build in CANONICAL.values():
            template = adapt_to_state(tensor, build(0.0))
            for phi in (0.7, math.pi):
                adapted = adapt_to_state(tensor, build(phi))
                assert adapted.alice.tobytes() == template.alice.tobytes()
                (pairs,) = pair_stacks(template.u, template.e_hat, [phi])
                assert pairs.tobytes() == adapted.pairs.tobytes()

    def test_leaves_self_unchanged(self):
        config = canonical_i28(0.3)
        before = config.pairs.tobytes()
        moved = pair_stacks(config.u, config.e_hat, [1.2])
        assert config.phi == 0.3 and moved.tobytes() != before
        assert config.pairs.tobytes() == before

    @pytest.mark.parametrize("phi", [-1e-12, -0.1, math.pi + 1e-12, 4.0, math.nan, math.inf])
    def test_phi_out_of_range(self, phi):
        for build in CANONICAL.values():
            config = build(0.5)
            with pytest.raises(ValueError, match=r"phi must lie in \[0, pi\]"):
                pair_stacks(config.u, config.e_hat, [0.5, phi])


def config_arrays(config):
    """Every array of ``config``, and a row of each."""
    for v in (config.alice, config.u, config.e_hat, config.pairs):
        yield from (v, v[0])
    yield config.pairs[0, 1]


class TestReadOnly:
    def configs(self):
        tensor = correlation_tensor(werner(0.9))
        for build in CANONICAL.values():
            config = build(0.5)
            yield config
            yield dataclasses.replace(config, phi=1.0)
            yield adapt_to_state(tensor, config)
            yield SettingsConfig.from_json_dict(config.to_json_dict())

    def test_every_vector_read_only(self):
        for config in self.configs():
            for v in config_arrays(config):
                assert v.dtype == float and not v.flags.writeable
            stacks = pair_stacks(config.u, config.e_hat, [0.0, 1.0])
            assert not (stacks.flags.writeable or stacks[1, 0].flags.writeable)

    def test_write_raises_and_constants_kept(self):
        constants = [v.copy() for v in (X, Y, Z, _TETRA)]
        config = canonical_i26(0.5)
        assert not any(np.shares_memory(config.u, v) for v in (X, Y, Z))
        for v in config_arrays(config):
            with pytest.raises(ValueError):
                v[0] = 0.6
        assert all(np.array_equal(v, c) for v, c in zip((X, Y, Z, _TETRA), constants))
        assert_same_config(canonical_i26(0.5), config)

    @pytest.mark.parametrize("name", ["X", "Y", "Z", "_TETRA"])
    def test_module_constants_read_only(self, name):
        # a write to geometry.X would move every later canonical configuration
        with pytest.raises(ValueError, match="read-only"):
            getattr(geometry, name)[0] = 0.6

    def test_caller_vectors_copied(self):
        u, e_hat, n = Z.copy(), X.copy(), Y.copy()
        config = SettingsConfig(
            alice=(n,), u=(u,), e_hat=(e_hat,), pairing=(0,), phi=0.5, kind=ONE_PAIR
        )
        assert u.flags.writeable and e_hat.flags.writeable and n.flags.writeable
        u[0] = e_hat[0] = n[0] = 7.0
        assert config.u[0].tobytes() == Z.tobytes()
        assert config.e_hat[0].tobytes() == X.tobytes()
        assert config.alice[0].tobytes() == Y.tobytes()
