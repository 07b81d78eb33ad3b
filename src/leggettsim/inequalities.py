"""Six- and eight-setting Leggett-type inequality values and thresholds.

The inequality value is the full left-hand side including the sine term,
so the bound is the constant 6 (six settings) or 8 (eight settings).

This module imports only the standard library, so the closed-form
subcommands of the CLI start without numpy.  It therefore also holds the
Werner-state fidelity conventions and the Bell-state names, which
``qstate`` re-exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PHI_BISECTION_TOL = 1e-10

BELL_KINDS = ("phi_minus", "phi_plus", "psi_minus", "psi_plus")


@dataclass(frozen=True)
class InequalityKind:
    tag: str
    num_pairs: int
    bound: float
    sine_coeff: float


I26 = InequalityKind(tag="i26", num_pairs=3, bound=6.0, sine_coeff=2.0)
I28 = InequalityKind(tag="i28", num_pairs=4, bound=8.0, sine_coeff=8.0 / math.sqrt(6.0))
KINDS = {"i26": I26, "i28": I28}


@dataclass(frozen=True)
class InequalityValue:
    kind: InequalityKind
    phi: float
    value: float
    pair_terms: tuple
    violated: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.tag,
            "phi_deg": math.degrees(self.phi),
            "value": self.value,
            "bound": self.kind.bound,
            "pair_terms": list(self.pair_terms),
            "violated": self.violated,
        }


def _check_phi(phi: float):
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi must lie in [0, pi], got {phi}")


def _check_visibility(v: float):
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")


def evaluate(kind: InequalityKind, phi: float, correlations) -> InequalityValue:
    """Inequality value from per-pair correlations [(C_i, C_i'), ...]."""
    _check_phi(phi)
    if len(correlations) != kind.num_pairs:
        raise ValueError(
            f"{kind.tag} needs {kind.num_pairs} correlation pairs, got {len(correlations)}"
        )
    for c, cp in correlations:
        if not (-1.0 - 1e-9 <= c <= 1.0 + 1e-9 and -1.0 - 1e-9 <= cp <= 1.0 + 1e-9):
            raise ValueError(f"correlations must lie in [-1, 1], got ({c}, {cp})")
    pair_terms = tuple(abs(c + cp) for c, cp in correlations)
    value = sum(pair_terms) + kind.sine_coeff * math.sin(phi / 2.0)
    return InequalityValue(
        kind=kind,
        phi=phi,
        value=value,
        pair_terms=pair_terms,
        violated=value > kind.bound,
    )


def quantum_value(kind: InequalityKind, phi: float, visibility: float) -> float:
    """Closed-form value under optimally adapted settings for a Werner state."""
    _check_phi(phi)
    _check_visibility(visibility)
    return kind.bound * visibility * math.cos(phi / 2.0) + kind.sine_coeff * math.sin(
        phi / 2.0
    )


def max_violation(kind: InequalityKind, visibility: float):
    """(phi_star, value) maximizing quantum_value over phi.

    phi_star = 2 arctan(sine_coeff / (bound V)); degenerates to pi at V = 0.
    """
    _check_visibility(visibility)
    if visibility == 0.0:
        return math.pi, kind.sine_coeff
    phi_star = 2.0 * math.atan(kind.sine_coeff / (kind.bound * visibility))
    value = math.hypot(kind.bound * visibility, kind.sine_coeff)
    return phi_star, value


def violation_region(kind: InequalityKind, visibility: float):
    """Open phi interval where the quantum value exceeds the bound, or None.

    Tangency (maximum exactly at the bound) counts as empty: a physical
    violation requires strict excess.
    """
    _check_visibility(visibility)
    phi_star, peak = max_violation(kind, visibility)
    if peak <= kind.bound:
        return None

    def excess(phi):
        return quantum_value(kind, phi, visibility) - kind.bound

    if excess(0.0) >= -PHI_BISECTION_TOL:
        lo = 0.0
    else:
        lo = _bisect(excess, 0.0, phi_star, increasing=True)
    hi = _bisect(excess, phi_star, math.pi, increasing=False)
    return lo, hi


def _bisect(f, a: float, b: float, increasing: bool) -> float:
    while b - a > PHI_BISECTION_TOL:
        mid = 0.5 * (a + b)
        positive = f(mid) > 0.0
        if positive == increasing:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def amplitude_fidelity(visibility: float) -> float:
    """Fidelity convention sqrt(3V + 1)/2 for a Werner state of visibility V."""
    _check_visibility(visibility)
    return math.sqrt(3.0 * visibility + 1.0) / 2.0


def overlap_fidelity(visibility: float) -> float:
    """Raw Bell-state overlap (3V + 1)/4 of a Werner state."""
    _check_visibility(visibility)
    return (3.0 * visibility + 1.0) / 4.0


def v_min(kind: InequalityKind) -> float:
    """Least visibility whose maximal quantum value reaches the bound."""
    return math.sqrt(1.0 - (kind.sine_coeff / kind.bound) ** 2)


def f_min(kind: InequalityKind) -> float:
    """Amplitude fidelity at the threshold visibility."""
    return amplitude_fidelity(v_min(kind))


def sigma_violation(value: float, sigma: float, kind: InequalityKind) -> float:
    """Standard deviations by which value exceeds the bound."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return (value - kind.bound) / sigma
