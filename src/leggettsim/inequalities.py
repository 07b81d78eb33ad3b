"""Six- and eight-setting Leggett-type inequalities: kinds, closed forms, thresholds.

The inequality value is the full left-hand side including the sine term,
so the bound is the constant 6 (six settings) or 8 (eight settings).
Sampled values are evaluated in ``expsim``, on a block's arrays; this
module gives the closed-form quantum values, maximal violations, violation
regions, visibility and fidelity thresholds and sigmas of violation.

This module imports only the standard library, so the closed-form
subcommands of the CLI start without numpy.  It therefore also holds the
Werner-state fidelity conventions; import them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

@dataclass(frozen=True)
class InequalityKind:
    tag: str
    num_pairs: int
    sine_coeff: float

    @property
    def bound(self) -> float:
        """Bound on the full left-hand side: 2 per setting pair."""
        return 2.0 * self.num_pairs


I26 = InequalityKind(tag="i26", num_pairs=3, sine_coeff=2.0)
I28 = InequalityKind(tag="i28", num_pairs=4, sine_coeff=8.0 / math.sqrt(6.0))
KINDS = {"i26": I26, "i28": I28}


def _check_phi(phi: float):
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi must lie in [0, pi], got {phi}")


def _check_visibility(v: float):
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")


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

    With (phi*, P) = max_violation(kind, V) the quantum value is
    P cos((phi - phi*)/2), so it equals the bound B at
    phi* +- 2 acos(B/P); the lower end is clipped at 0.  The upper end
    stays below pi because the value at pi is sine_coeff < B.  Tangency
    (maximum exactly at the bound) counts as empty: a physical violation
    requires strict excess.
    """
    phi_star, peak = max_violation(kind, visibility)
    if peak <= kind.bound:
        return None
    half_width = 2.0 * math.acos(kind.bound / peak)
    return max(0.0, phi_star - half_width), phi_star + half_width


def amplitude_fidelity(visibility: float) -> float:
    """Fidelity convention sqrt(3V + 1)/2 for a Werner state of visibility V."""
    _check_visibility(visibility)
    return math.sqrt(3.0 * visibility + 1.0) / 2.0


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
