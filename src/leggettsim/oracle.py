"""Brute-force certification of the hidden-variable bounds.

A hidden-variable point is a pair of unit vectors (u, v) fixing both
parties' Malus-type marginals u.n and v.m.  Probability non-negativity
confines each correlation to an interval, and the supremum over
statistical mixtures of such points equals the supremum over single
points, so a dense grid over (u, v) certifies the inequality bounds.

The Malus-type marginal rule is the standard construction for this model
class; the paper relegates it to supplementary material.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SettingPair, SettingsConfig, fibonacci_sphere
from .inequalities import KINDS
from .qstate import _check_unit


@dataclass(frozen=True)
class LeggettEnsemblePoint:
    """Hidden variable lambda = (u, v): subensemble polarizations."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _check_unit(self.u, "u"))
        object.__setattr__(self, "v", _check_unit(self.v, "v"))

    def marginals(self, n, m):
        """(M_A, M_B) = (u.n, v.m) for a setting pair (n, m).

        Dot products of unit vectors are clipped to [-1, 1] to absorb
        roundoff.
        """
        m_a = float(self.u @ np.asarray(n, float))
        m_b = float(self.v @ np.asarray(m, float))
        return min(max(m_a, -1.0), 1.0), min(max(m_b, -1.0), 1.0)


@dataclass(frozen=True)
class CorrelationInterval:
    lo: float
    hi: float


@dataclass(frozen=True)
class BoundReport:
    kind: str
    phi: float
    grid_size: int
    oracle_value: float
    bound: float
    margin: float
    argmax_u: np.ndarray
    argmax_v: np.ndarray

    @property
    def passed(self) -> bool:
        return self.margin >= -1e-9

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "phi_deg": math.degrees(self.phi),
            "grid_size": self.grid_size,
            "oracle_value": self.oracle_value,
            "bound": self.bound,
            "margin": self.margin,
            "argmax_u": list(self.argmax_u),
            "argmax_v": list(self.argmax_v),
        }


def correlation_interval(m_a: float, m_b: float) -> CorrelationInterval:
    """Admissible correlations given marginals: all four P(alpha, beta) >= 0."""
    if not (-1.0 <= m_a <= 1.0 and -1.0 <= m_b <= 1.0):
        raise ValueError(f"marginals must lie in [-1, 1], got ({m_a}, {m_b})")
    return CorrelationInterval(lo=abs(m_a + m_b) - 1.0, hi=1.0 - abs(m_a - m_b))


def pair_term_max(point: LeggettEnsemblePoint, pair: SettingPair, n) -> float:
    """Largest |C + C'| achievable at this hidden-variable point."""
    m_a, m_b = point.marginals(n, pair.m)
    _, m_b_prime = point.marginals(n, pair.m_prime)
    iv = correlation_interval(m_a, m_b)
    iv_prime = correlation_interval(m_a, m_b_prime)
    return max(iv.hi + iv_prime.hi, -(iv.lo + iv_prime.lo))


def _pair_term_max_grid(m_a, m_b, m_b_prime):
    """Vectorized pair_term_max over marginal grids broadcast to (u, v)."""
    upper = 2.0 - np.abs(m_a - m_b) - np.abs(m_a - m_b_prime)
    lower = 2.0 - np.abs(m_a + m_b) - np.abs(m_a + m_b_prime)
    return np.maximum(upper, lower)


def _scan(config: SettingsConfig, grid_size: int):
    kind = KINDS[config.kind]
    u_grid = fibonacci_sphere(grid_size)
    v_grid = fibonacci_sphere(grid_size)
    total = np.zeros((grid_size, grid_size))
    for i, pair in enumerate(config.pairs):
        n = config.alice[config.pairing[i]]
        m_a = (u_grid @ n)[:, None]
        m_b = (v_grid @ pair.m)[None, :]
        m_b_prime = (v_grid @ pair.m_prime)[None, :]
        total += _pair_term_max_grid(m_a, m_b, m_b_prime)
    total += kind.sine_coeff * math.sin(config.phi / 2.0)
    flat = int(np.argmax(total))  # first occurrence: lowest-index tie-break
    ui, vi = divmod(flat, grid_size)
    return float(total[ui, vi]), u_grid[ui], v_grid[vi]


def oracle_max(config: SettingsConfig, grid_size: int = 500) -> float:
    """Max of the inequality expression over the hidden-variable grid."""
    if grid_size < 50:
        raise ValueError(f"grid_size must be >= 50, got {grid_size}")
    value, _, _ = _scan(config, grid_size)
    return value


def verify_bound(config: SettingsConfig, grid_size: int = 500) -> BoundReport:
    """Certify the bound on a grid; margin < -1e-9 signals an implementation bug."""
    if grid_size < 50:
        raise ValueError(f"grid_size must be >= 50, got {grid_size}")
    kind = KINDS[config.kind]
    value, u, v = _scan(config, grid_size)
    return BoundReport(
        kind=config.kind,
        phi=config.phi,
        grid_size=grid_size,
        oracle_value=value,
        bound=kind.bound,
        margin=kind.bound - value,
        argmax_u=u,
        argmax_v=v,
    )
