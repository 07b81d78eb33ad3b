"""Grid search for the hidden-variable maximum of the inequality expressions.

A hidden-variable point is a pair of unit vectors (u, v) fixing both
parties' Malus-type marginals u.n and v.m.  Non-negativity of the four
outcome probabilities confines each correlation to an interval, so each
pair term |C + C'| has a largest value at the point: ``pair_term_max``, the
one kernel, computes it from the three marginals of a pair.  The supremum
over statistical mixtures of points equals the supremum over single
points.  The maximum over a Fibonacci grid of (u, v) is therefore a lower
bound on that supremum, approached from below as the grid is refined; it
does not certify the inequality bound.

The scan is pruned without changing its result: each pair term is at most
2 - |v.(m - m')| for any u, so a v-column whose summed ceilings fall below
the best cell found cannot hold the grid maximum or a tie with it.  The
column of highest ceiling is evaluated first, and only the columns that
reach its best cell are sorted.  The grid size is an int in [50,
MAX_GRID_SIZE]; one grid, of the last size scanned, is kept read-only.

The Malus-type marginal rule is the standard construction for this model
class; the paper relegates it to supplementary material.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import SettingsConfig, fibonacci_sphere
from .qstate import _frozen


@dataclass(frozen=True, eq=False)
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


def pair_term_max(m_a, m_b, m_b_prime):
    """Largest |C + C'| a hidden-variable point allows, given its marginals.

    m_a = u.n is Alice's marginal and m_b = v.m, m_b_prime = v.m' are Bob's
    for the two settings of a pair; scalars or arrays that broadcast.  The
    four outcome probabilities (1 + alpha m_a + beta m_b + alpha beta C)/4,
    alpha, beta = +-1, are non-negative exactly when
    |m_a + m_b| - 1 <= C <= 1 - |m_a - m_b|.  C + C' is largest at both
    upper ends and smallest at both lower ends, so the largest |C + C'| is
    the larger of 2 - |m_a - m_b| - |m_a - m_b'| and
    2 - |m_a + m_b| - |m_a + m_b'|.
    """
    upper = 2.0 - np.abs(m_a - m_b) - np.abs(m_a - m_b_prime)
    lower = 2.0 - np.abs(m_a + m_b) - np.abs(m_a + m_b_prime)
    return np.maximum(upper, lower)


# Added to every column ceiling.  The kernel and the ceiling each round by
# about 1e-15 per pair, so with this slack no computed cell can reach above
# its column's ceiling, and pruning a column below the best cell is exact.
_SLACK = 1e-9
# Chunks of columns grow 1, 2, 4, ... up to this; one holds <= grid_size * _CHUNK cells.
_CHUNK = 64
# Largest grid accepted.  Where every column ceiling ties (phi = 0) the scan
# visits all grid_size**2 cells, and a chunk holds grid_size * _CHUNK.
MAX_GRID_SIZE = 10**5


@functools.lru_cache(maxsize=1)
def _grid(grid_size: int) -> np.ndarray:
    """Read-only Fibonacci grid of u and v; one is kept, <= 2.4 MB at MAX_GRID_SIZE."""
    return _frozen(fibonacci_sphere(grid_size))


def _scan(config: SettingsConfig, grid_size: int):
    """Grid maximum of the expression and copies of its first (u, v), row-major.

    Each pair term is at most 2 - |v.m - v.m'|, whatever u is, since
    |a - b| + |a - b'| >= |b - b'| and |a + b| + |a + b'| >= |b - b'|.  The
    sum of these ceilings bounds every cell of a v-column.  The argmax column
    is evaluated first; the columns reaching its best cell are then stably
    sorted by falling ceiling and visited in chunks growing 2, 4, ... up to
    _CHUNK, stopping before a chunk whose first ceiling is below the best
    cell found.  Every cell equal to the grid maximum lies in a visited
    column, so value and argmax equal those of the full grid.
    """
    if isinstance(grid_size, bool) or not isinstance(grid_size, (int, np.integer)):
        raise ValueError(f"grid_size must be an int, got {grid_size!r}")
    if grid_size < 50:
        raise ValueError(f"grid_size must be >= 50, got {grid_size}")
    if grid_size > MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be <= {MAX_GRID_SIZE}, got {grid_size}")
    grid = _grid(int(grid_size))
    sine = config.kind.sine_coeff * math.sin(config.phi / 2.0)
    alice = [(grid @ n)[:, None] for n in config.alice]
    projections = []
    ceiling = np.zeros(grid_size)
    for (m, m_prime), alice_idx in zip(config.pairs, config.pairing):
        m_b = grid @ m
        m_b_prime = grid @ m_prime
        projections.append((alice[alice_idx], m_b, m_b_prime))
        ceiling += 2.0 - np.abs(m_b - m_b_prime)
    ceiling += sine + _SLACK

    def best_cell(cols):
        total = np.zeros((grid_size, cols.size))
        for m_a, m_b, m_b_prime in projections:
            total += pair_term_max(m_a, m_b[None, cols], m_b_prime[None, cols])
        total += sine
        row, col = divmod(int(np.argmax(total)), cols.size)
        return float(total[row, col]), row * grid_size + int(cols[col])

    best, best_flat = best_cell(np.array([np.argmax(ceiling)]))
    candidates = np.flatnonzero(ceiling >= best)
    # order[0] is the argmax column, already evaluated
    order = candidates[np.argsort(-ceiling[candidates], kind="stable")]
    start, width = 1, min(2, _CHUNK)
    while start < order.size and ceiling[order[start]] >= best:
        value, flat = best_cell(np.sort(order[start:start + width]))
        # lowest row-major index among equal cells, as argmax over the full grid
        if value > best or (value == best and flat < best_flat):
            best, best_flat = value, flat
        start, width = start + width, min(2 * width, _CHUNK)
    ui, vi = divmod(best_flat, grid_size)
    return best, grid[ui].copy(), grid[vi].copy()


def verify_bound(config: SettingsConfig, grid_size: int = 500) -> BoundReport:
    """Check the bound against the grid maximum of the expression.

    The grid value is a lower bound on the hidden-variable supremum,
    approached from below as the grid is refined, so a non-negative margin
    is consistent with the bound but does not prove it.  A margin below
    -1e-9 signals an implementation bug.  See ``_scan`` for the pruning.
    """
    kind = config.kind
    value, u, v = _scan(config, grid_size)
    return BoundReport(
        kind=kind.tag,
        phi=config.phi,
        grid_size=int(grid_size),
        oracle_value=value,
        bound=kind.bound,
        margin=kind.bound - value,
        argmax_u=u,
        argmax_v=v,
    )
