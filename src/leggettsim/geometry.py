"""Measurement settings on the Poincare sphere.

Bob's settings come in pairs (m, m') = cos(phi/2) u +- sin(phi/2) e_hat,
separated by the angle phi and parametrized by a bisector u and a
difference direction e_hat.  A ``SettingsConfig`` holds these as arrays:
the bisectors and directions as (P, 3) stacks, one phi for all pairs, and
the pairs themselves as a (P, 2, 3) stack of each pair's (m, m').
``pair_stacks`` computes the pairs at K angles at once, as (K, P, 2, 3),
with the same elementwise operations.  The two canonical configurations
use an orthogonal triad of difference directions (six settings) and a
regular tetrahedron (eight settings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .inequalities import I26, I28, KINDS, InequalityKind, _check_phi
from .qstate import CorrelationTensor, _check_norms, _check_unit, _frozen

ORTHO_TOL = 1e-9
DEGENERATE_TOL = 1e-9

X = _frozen(np.array([1.0, 0.0, 0.0]))
Y = _frozen(np.array([0.0, 1.0, 0.0]))
Z = _frozen(np.array([0.0, 0.0, 1.0]))


class DegenerateTensorError(ValueError):
    """Raised when a correlation tensor maps a bisector to (numerically) zero."""


@dataclass(frozen=True, eq=False)
class SettingsConfig:
    """Alice vectors, Bob's setting pairs at one phi, and the pair -> Alice assignment.

    ``alice`` is an (A, 3) stack of unit vectors; ``u`` and ``e_hat`` are
    (P, 3) stacks of each pair's bisector and difference direction, row by
    row orthogonal unit vectors that give unit settings (m, m') at every
    phi.  All are read-only float copies, as is the
    derived (P, 2, 3) stack ``pairs`` of each pair's (m, m'), so
    ``pairs.reshape(-1, 3)`` lists the settings in setting order.
    ``pair_stacks`` gives the pairs at other angles.  ``pairing[i]`` is the
    0-based index of the Alice vector used with pair i.  ``kind`` is the
    inequality the configuration tests, whose pair count it must have; its
    JSON form is the tag.
    """

    alice: np.ndarray
    u: np.ndarray
    e_hat: np.ndarray
    pairing: tuple
    phi: float
    kind: InequalityKind
    pairs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.kind, InequalityKind):
            raise ValueError(f"unknown inequality kind {self.kind!r}")
        _check_phi(self.phi)
        alice = []
        for i, n in enumerate(self.alice):
            # numpy raises TypeError on values it cannot convert, such as objects
            try:
                alice.append(_check_unit(n, "n"))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"alice[{i}]: {exc}") from exc
        if len(self.u) != len(self.e_hat):
            raise ValueError(f"{len(self.e_hat)} difference directions for {len(self.u)} bisectors")
        if not len(self.u):
            raise ValueError("a configuration needs at least one setting pair")
        if len(self.u) != self.kind.num_pairs:
            raise ValueError(
                f"{self.kind.tag} needs {self.kind.num_pairs} setting pairs, got {len(self.u)}"
            )
        u, e_hat = [], []
        for i, (u_i, e_i) in enumerate(zip(self.u, self.e_hat)):
            try:
                u.append(_check_unit(u_i, "u"))
                e_hat.append(_check_unit(e_i, "e_hat"))
                dot = float(u[i] @ e_hat[i])
                if not abs(dot) <= ORTHO_TOL:
                    raise ValueError(f"u and e_hat must be orthogonal, dot = {dot}")
                # over phi in [0, pi], |m|^2 and |m'|^2 range over the eigenvalues
                # mid +- half of the Gram matrix [[u.u, dot], [dot, e.e]]
                uu, ee = float(u[i] @ u[i]), float(e_hat[i] @ e_hat[i])
                mid, half = (uu + ee) / 2.0, math.hypot((uu - ee) / 2.0, dot)
                _check_norms(np.sqrt([mid - half, mid + half]), "m")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"pairs[{i}]: {exc}") from exc
        if len(self.pairing) != len(u):
            raise ValueError(f"{len(self.pairing)} pairing entries for {len(u)} pairs")
        if not all(i in range(len(alice)) for i in self.pairing):
            raise ValueError(f"pairing {self.pairing} outside range({len(alice)})")
        # 1.0 and True pass the range test above
        if not all(type(i) is int for i in self.pairing):
            raise ValueError(f"pairing entries must be int indices, got {self.pairing}")
        for name, rows in (("alice", alice), ("u", u), ("e_hat", e_hat)):
            object.__setattr__(self, name, _frozen(np.array(rows)))
        object.__setattr__(self, "pairs", pair_stacks(self.u, self.e_hat, [self.phi])[0])

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.tag,
            "phi_deg": math.degrees(self.phi),
            "alice": [list(n) for n in self.alice],
            "pairs": [
                {"m": list(m), "m_prime": list(m_prime), "e_hat": list(e_hat), "u": list(u)}
                for (m, m_prime), u, e_hat in zip(self.pairs, self.u, self.e_hat)
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
        for i, p in enumerate(data["pairs"]):
            where = f"settings config: pairs[{i}]"
            if not isinstance(p, dict):
                raise ValueError(f"{where}: expected an object, got {p!r}")
            missing = [key for key in ("u", "e_hat") if key not in p]
            if missing:
                raise ValueError(f"{where}: missing {', '.join(missing)}")
        alice = data["alice"]
        pairing = data["pairing"]
        # 1-based here; True and 1.0 are not indices
        if not all(type(i) is int and 1 <= i <= len(alice) for i in pairing):
            raise ValueError(
                f"settings config: pairing {pairing}: expected int indices in 1..{len(alice)}"
            )
        kind = data["kind"]
        # the constructor checks the vectors, naming a bad one, phi and the kind
        try:
            return cls(
                alice=alice,
                u=[p["u"] for p in data["pairs"]],
                e_hat=[p["e_hat"] for p in data["pairs"]],
                pairing=tuple(i - 1 for i in pairing),
                phi=math.radians(phi_deg),
                kind=KINDS.get(kind, kind) if isinstance(kind, str) else kind,
            )
        except ValueError as exc:
            raise ValueError(f"settings config: {exc}") from exc


def pair_stacks(u: np.ndarray, e_hat: np.ndarray, phis) -> np.ndarray:
    """Read-only (K, P, 2, 3) stack of (m, m') = cos(phi/2) u +- sin(phi/2) e_hat.

    Row k holds the P pairs of bisectors ``u`` and directions ``e_hat``,
    both (P, 3), at ``phis[k]``, each in [0, pi].  The cosines and sines
    come from ``math``, and every element is one IEEE multiply and one add,
    so row k does not depend on the other angles.
    """
    for phi in phis:
        _check_phi(phi)
    cos = np.array([math.cos(phi / 2.0) for phi in phis])[:, None, None]
    sin = np.array([math.sin(phi / 2.0) for phi in phis])[:, None, None]
    cu, se = cos * u, sin * e_hat
    return _frozen(np.stack((cu + se, cu - se), axis=2))


def canonical_i26(phi: float) -> SettingsConfig:
    """Six-setting configuration: orthogonal triad of difference directions."""
    return SettingsConfig(
        alice=(Z, X), u=(Z, Z, X), e_hat=(X, Y, Z), pairing=(0, 0, 1), phi=phi, kind=I26
    )


_TETRA = _frozen(
    np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    / math.sqrt(3)
)


def canonical_i28(phi: float) -> SettingsConfig:
    """Eight-setting configuration: tetrahedral difference directions.

    Pairs 1, 2 share the bisector along e1 x e2 and pairs 3, 4 the bisector
    along e3 x e4; the two bisectors double as the Alice vectors.
    """
    u12 = np.array([0.0, 1.0, -1.0]) / math.sqrt(2)
    u34 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2)
    return SettingsConfig(
        alice=(u12, u34),
        u=(u12, u12, u34, u34),
        e_hat=_TETRA,
        pairing=(0, 0, 1, 1),
        phi=phi,
        kind=I28,
    )


# inequality tag -> builder of its canonical configuration at half-angle phi
CANONICAL = {"i26": canonical_i26, "i28": canonical_i28}


def adapt_to_state(tensor: CorrelationTensor, config: SettingsConfig) -> SettingsConfig:
    """Replace each Alice vector by the direction maximizing |n . (T u)|.

    The replacement is n = T u / |T u| for the common bisector u of the
    pairs assigned to that Alice vector; with this sign n^T T u >= 0.
    Bob's pairs are left untouched.
    """
    new_alice = []
    for alice_idx, n in enumerate(config.alice):
        us = [u for u, i in zip(config.u, config.pairing) if i == alice_idx]
        if not us:
            new_alice.append(n)
            continue
        for other in us[1:]:
            if not np.linalg.norm(other - us[0]) <= ORTHO_TOL:
                raise ValueError("pairs assigned to one Alice vector must share a bisector")
        tu = tensor.t @ us[0]
        norm = np.linalg.norm(tu)
        if not norm >= DEGENERATE_TOL:
            raise DegenerateTensorError(f"T u is numerically zero or NaN (|T u| = {norm})")
        new_alice.append(tu / norm)
    return replace(config, alice=new_alice)


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
