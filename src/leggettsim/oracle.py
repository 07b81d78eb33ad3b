"""Grid search for the hidden-variable maximum of the inequality expressions.

A hidden-variable point is a pair of unit vectors (u, v) fixing both
parties' Malus-type marginals u.n and v.m.  Probability non-negativity
confines each correlation to an interval, and the supremum over
statistical mixtures of such points equals the supremum over single
points.  The maximum over a Fibonacci grid of (u, v) is therefore a lower
bound on that supremum, approached from below as the grid is refined; it
does not certify the inequality bound.

The scan is pruned without changing its result: each pair term is at most
2 - |v.(m - m')| for any u, so a v-column whose summed ceilings fall below
the best cell found cannot hold the grid maximum or a tie with it.

The Malus-type marginal rule is the standard construction for this model
class; the paper relegates it to supplementary material.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SettingPair, SettingsConfig, fibonacci_sphere
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


# Added to every column ceiling.  The kernel and the ceiling each round by
# about 1e-15 per pair, so with this slack no computed cell can reach above
# its column's ceiling, and pruning a column below the best cell is exact.
_SLACK = 1e-9
# Columns evaluated together; a chunk holds grid_size * _CHUNK cells.
_CHUNK = 64


def _scan(config: SettingsConfig, grid_size: int):
    """Grid maximum of the expression and its first (u, v) in row-major order.

    Each pair term is at most 2 - |v.m - v.m'|, whatever u is, since
    |a - b| + |a - b'| >= |b - b'| and |a + b| + |a + b'| >= |b - b'|.  The
    sum of these ceilings bounds every cell of a v-column, so the columns are
    visited by falling ceiling and the scan stops once the next ceiling is
    below the best cell found.  Every cell equal to the grid maximum lies in
    a visited column, so value and argmax equal those of the full grid.
    """
    if grid_size < 50:
        raise ValueError(f"grid_size must be >= 50, got {grid_size}")
    u_grid = fibonacci_sphere(grid_size)
    v_grid = fibonacci_sphere(grid_size)
    sine = config.kind.sine_coeff * math.sin(config.phi / 2.0)
    projections = []
    ceiling = np.zeros(grid_size)
    for i, pair in enumerate(config.pairs):
        n = config.alice[config.pairing[i]]
        m_b = v_grid @ pair.m
        m_b_prime = v_grid @ pair.m_prime
        projections.append(((u_grid @ n)[:, None], m_b, m_b_prime))
        ceiling += 2.0 - np.abs(m_b - m_b_prime)
    ceiling += sine + _SLACK
    order = np.argsort(-ceiling, kind="stable")
    best, best_flat = -math.inf, 0
    for start in range(0, grid_size, _CHUNK):
        if ceiling[order[start]] < best:
            break
        cols = np.sort(order[start:start + _CHUNK])
        total = np.zeros((grid_size, cols.size))
        for m_a, m_b, m_b_prime in projections:
            total += _pair_term_max_grid(m_a, m_b[None, cols], m_b_prime[None, cols])
        total += sine
        row, col = divmod(int(np.argmax(total)), cols.size)
        value, flat = float(total[row, col]), row * grid_size + int(cols[col])
        # lowest row-major index among equal cells, as argmax over the full grid
        if value > best or (value == best and flat < best_flat):
            best, best_flat = value, flat
    ui, vi = divmod(best_flat, grid_size)
    return best, u_grid[ui], v_grid[vi]


def verify_bound(config: SettingsConfig, grid_size: int = 500) -> BoundReport:
    """Check the bound against the grid maximum of the expression.

    The grid value is a lower bound on the hidden-variable supremum,
    approached from below as the grid is refined, so a non-negative margin
    is consistent with the bound but does not prove it.  A margin below
    -1e-9 signals an implementation bug.  Columns of v whose per-pair
    ceilings sum below the best cell are skipped; see ``_scan``.
    """
    kind = config.kind
    value, u, v = _scan(config, grid_size)
    return BoundReport(
        kind=kind.tag,
        phi=config.phi,
        grid_size=grid_size,
        oracle_value=value,
        bound=kind.bound,
        margin=kind.bound - value,
        argmax_u=u,
        argmax_v=v,
    )
