"""Measurement settings on the Poincare sphere.

Bob's settings come in pairs (m, m') separated by an angle phi and
parametrized by a bisector u and a difference direction e_hat.  The two
canonical configurations use an orthogonal triad of difference directions
(six settings) and a regular tetrahedron (eight settings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequalities import I26, I28, KINDS, InequalityKind
from .qstate import CorrelationTensor, _check_unit

ORTHO_TOL = 1e-9
DEGENERATE_TOL = 1e-9

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


class DegenerateTensorError(ValueError):
    """Raised when a correlation tensor maps a bisector to (numerically) zero."""


@dataclass(frozen=True)
class SettingPair:
    """Bob setting pair m = cos(phi/2) u + sin(phi/2) e_hat, m' its mirror."""

    m: np.ndarray
    m_prime: np.ndarray
    u: np.ndarray
    e_hat: np.ndarray
    phi: float


@dataclass(frozen=True)
class SettingsConfig:
    """Alice vectors, Bob setting pairs and the pair -> Alice assignment.

    ``alice`` holds unit 3-vectors, kept as float arrays.  ``pairing[i]`` is
    the 0-based index of the Alice vector used with pair i.  ``kind`` is the
    inequality the configuration tests; its JSON form is the tag.  The pair
    count is not tied to ``kind.num_pairs``: ``evaluate`` checks that where
    the inequality is evaluated.
    """

    alice: tuple
    pairs: tuple
    pairing: tuple
    kind: InequalityKind

    def __post_init__(self):
        if not isinstance(self.kind, InequalityKind):
            raise ValueError(f"unknown inequality kind {self.kind!r}")
        alice = []
        for i, n in enumerate(self.alice):
            # numpy raises TypeError on values it cannot convert, such as objects
            try:
                alice.append(_check_unit(n, "n"))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"alice[{i}]: {exc}") from exc
        object.__setattr__(self, "alice", tuple(alice))
        if not self.pairs:
            raise ValueError("a configuration needs at least one setting pair")
        if len(self.pairing) != len(self.pairs):
            raise ValueError(f"{len(self.pairing)} pairing entries for {len(self.pairs)} pairs")
        if not all(i in range(len(self.alice)) for i in self.pairing):
            raise ValueError(f"pairing {self.pairing} outside range({len(self.alice)})")
        # 1.0 and True pass the range test above
        if not all(type(i) is int for i in self.pairing):
            raise ValueError(f"pairing entries must be int indices, got {self.pairing}")
        if len({p.phi for p in self.pairs}) > 1:
            raise ValueError("setting pairs must share one phi")

    @property
    def phi(self) -> float:
        return self.pairs[0].phi

    def settings(self):
        """Flat list of (setting_index, alice_index, n, m) over all settings."""
        out = []
        for i, pair in enumerate(self.pairs):
            n = self.alice[self.pairing[i]]
            out.append((2 * i, self.pairing[i], n, pair.m))
            out.append((2 * i + 1, self.pairing[i], n, pair.m_prime))
        return out

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.tag,
            "phi_deg": math.degrees(self.phi),
            "alice": [list(n) for n in self.alice],
            "pairs": [
                {
                    "m": list(p.m),
                    "m_prime": list(p.m_prime),
                    "e_hat": list(p.e_hat),
                    "u": list(p.u),
                }
                for p in self.pairs
            ],
            "pairing": [i + 1 for i in self.pairing],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SettingsConfig":
        """The configuration ``to_json_dict`` wrote; malformed data raise ValueError.

        ``pairing`` holds 1-based Alice indices.  Errors name the field, and
        the index of the pair or Alice vector, as the file has them.
        """
        if not isinstance(data, dict):
            raise ValueError(f"settings config: expected an object, got {data!r}")
        keys = ("kind", "phi_deg", "alice", "pairs", "pairing")
        missing = [key for key in keys if key not in data]
        if missing:
            raise ValueError(f"settings config: missing {', '.join(missing)}")
        phi_deg = data["phi_deg"]
        if isinstance(phi_deg, bool) or not isinstance(phi_deg, (int, float)):
            raise ValueError(f"settings config: phi_deg: expected a number, got {phi_deg!r}")
        for key in keys[2:]:
            if not isinstance(data[key], list):
                raise ValueError(f"settings config: {key}: expected a list, got {data[key]!r}")
        phi = math.radians(phi_deg)
        pairs = []
        for i, p in enumerate(data["pairs"]):
            where = f"settings config: pairs[{i}]"
            if not isinstance(p, dict):
                raise ValueError(f"{where}: expected an object, got {p!r}")
            missing = [key for key in ("u", "e_hat") if key not in p]
            if missing:
                raise ValueError(f"{where}: missing {', '.join(missing)}")
            # numpy raises TypeError on values it cannot convert, such as objects
            try:
                pairs.append(make_pair(p["u"], p["e_hat"], phi))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from exc
        alice = data["alice"]
        pairing = data["pairing"]
        # 1-based here; True and 1.0 are not indices
        if not all(type(i) is int and 1 <= i <= len(alice) for i in pairing):
            raise ValueError(
                f"settings config: pairing {pairing}: expected int indices in 1..{len(alice)}"
            )
        kind = data["kind"]
        # the constructor checks the Alice vectors, naming a bad one, and the kind
        try:
            return cls(
                alice=tuple(alice),
                pairs=tuple(pairs),
                pairing=tuple(i - 1 for i in pairing),
                kind=KINDS.get(kind, kind) if isinstance(kind, str) else kind,
            )
        except ValueError as exc:
            raise ValueError(f"settings config: {exc}") from exc


def make_pair(u, e_hat, phi: float) -> SettingPair:
    """Build the setting pair with bisector u, difference direction e_hat."""
    u = _check_unit(u, "u")
    e_hat = _check_unit(e_hat, "e_hat")
    if not abs(float(u @ e_hat)) <= ORTHO_TOL:
        raise ValueError(f"u and e_hat must be orthogonal, dot = {float(u @ e_hat)}")
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi must lie in [0, pi], got {phi}")
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return SettingPair(
        m=c * u + s * e_hat,
        m_prime=c * u - s * e_hat,
        u=u,
        e_hat=e_hat,
        phi=phi,
    )


def canonical_i26(phi: float) -> SettingsConfig:
    """Six-setting configuration: orthogonal triad of difference directions."""
    pairs = (
        make_pair(Z, X, phi),
        make_pair(Z, Y, phi),
        make_pair(X, Z, phi),
    )
    return SettingsConfig(alice=(Z, X), pairs=pairs, pairing=(0, 0, 1), kind=I26)


_TETRA = (
    np.array([1.0, 1.0, 1.0]) / math.sqrt(3),
    np.array([1.0, -1.0, -1.0]) / math.sqrt(3),
    np.array([-1.0, 1.0, -1.0]) / math.sqrt(3),
    np.array([-1.0, -1.0, 1.0]) / math.sqrt(3),
)


def canonical_i28(phi: float) -> SettingsConfig:
    """Eight-setting configuration: tetrahedral difference directions.

    Pairs 1, 2 share the bisector along e1 x e2 and pairs 3, 4 the bisector
    along e3 x e4; the two bisectors double as the Alice vectors.
    """
    u12 = np.array([0.0, 1.0, -1.0]) / math.sqrt(2)
    u34 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2)
    pairs = (
        make_pair(u12, _TETRA[0], phi),
        make_pair(u12, _TETRA[1], phi),
        make_pair(u34, _TETRA[2], phi),
        make_pair(u34, _TETRA[3], phi),
    )
    return SettingsConfig(alice=(u12, u34), pairs=pairs, pairing=(0, 0, 1, 1), kind=I28)


# inequality tag -> builder of its canonical configuration at half-angle phi
CANONICAL = {"i26": canonical_i26, "i28": canonical_i28}


def adapt_to_state(tensor: CorrelationTensor, config: SettingsConfig) -> SettingsConfig:
    """Replace each Alice vector by the direction maximizing |n . (T u)|.

    The replacement is n = T u / |T u| for the common bisector u of the
    pairs assigned to that Alice vector; with this sign n^T T u >= 0.
    Bob's pairs are left untouched.
    """
    new_alice = []
    for alice_idx in range(len(config.alice)):
        us = [p.u for i, p in enumerate(config.pairs) if config.pairing[i] == alice_idx]
        if not us:
            new_alice.append(config.alice[alice_idx])
            continue
        for other in us[1:]:
            if not np.linalg.norm(other - us[0]) <= ORTHO_TOL:
                raise ValueError("pairs assigned to one Alice vector must share a bisector")
        tu = tensor.t @ us[0]
        norm = np.linalg.norm(tu)
        if not norm >= DEGENERATE_TOL:
            raise DegenerateTensorError(f"T u is numerically zero or NaN (|T u| = {norm})")
        new_alice.append(tu / norm)
    return SettingsConfig(
        alice=tuple(new_alice),
        pairs=config.pairs,
        pairing=config.pairing,
        kind=config.kind,
    )


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform grid of n points on the unit sphere."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def geometric_factor(dirs) -> float:
    """Minimum over unit v of sum_i |v . e_i|, exactly.

    The sum is the support function of the zonotope sum_i [-e_i, e_i], so
    its minimum is the zonotope's inradius, reached at a facet normal
    e_i x e_j.  It is evaluated at every normalised nonzero pairwise cross
    product; a coplanar set gives 0 at its plane's normal, and a set on one
    line has no nonzero cross product and gives 0.
    """
    if len(dirs) < 1:
        raise ValueError("need at least one direction")
    e = np.array([_check_unit(d, "direction") for d in dirs])
    i, j = np.triu_indices(len(e), 1)
    normals = np.cross(e[i], e[j])
    norms = np.linalg.norm(normals, axis=1)
    nonzero = norms > 0.0
    if not nonzero.any():
        return 0.0
    normals = normals[nonzero] / norms[nonzero, None]
    return float(np.abs(normals @ e.T).sum(axis=1).min())
