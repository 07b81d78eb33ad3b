import dataclasses
import math

import numpy as np
from hypothesis import strategies as st

from leggettsim.expsim import ReadoutModel, run_experiments
from leggettsim.geometry import Z, SettingsConfig
from leggettsim.inequalities import I26
from leggettsim.qstate import _check_unit


@st.composite
def unit_vectors(draw):
    v = np.array(
        [
            draw(st.floats(-1, 1, allow_nan=False)),
            draw(st.floats(-1, 1, allow_nan=False)),
            draw(st.floats(-1, 1, allow_nan=False)),
        ]
    )
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.array([0.0, 0.0, 1.0])
        norm = 1.0
    return v / norm


# I26's sine coefficient on one pair, for configurations that only test
# the geometry of a pair or the oracle scan
ONE_PAIR = dataclasses.replace(I26, tag="one_pair", num_pairs=1)


def one_pair(u, e_hat, phi):
    """A configuration of the one setting pair with bisector u, direction e_hat."""
    return SettingsConfig(alice=(Z,), u=(u,), e_hat=(e_hat,), pairing=(0,), phi=phi, kind=ONE_PAIR)


def correlation(state, n, m) -> float:
    """n^T T m for settings n (Alice) and m (Bob), clipped to [-1, 1].

    The test reference for the n.T.m term of ``joint_probabilities``.
    """
    n = _check_unit(n, "n")
    m = _check_unit(m, "m")
    return float(np.clip(float(n @ state.tensor.t @ m), -1.0, 1.0))


def evaluate(kind, phi: float, correlations, gain=(1.0, -1.0, -1.0, 1.0)) -> dict:
    """Inequality value from per-pair correlations [(C_i, C_i'), ...].

    The scalar test reference for the sampler's pair terms and values, in
    the form ``simulate`` writes them: each pair term is |C + C'|, and the
    terms are added left to right, then the sine term.  Each correlation
    is ``gain`` . f for its setting's frequencies f, so it must lie in
    [min, max] of the gain's entries: [-1, 1] for raw data.
    """
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi must lie in [0, pi], got {phi}")
    if len(correlations) != kind.num_pairs:
        raise ValueError(
            f"{kind.tag} needs {kind.num_pairs} correlation pairs, got {len(correlations)}"
        )
    lo, hi = min(gain), max(gain)
    for c, cp in correlations:
        if not (lo - 1e-9 <= c <= hi + 1e-9 and lo - 1e-9 <= cp <= hi + 1e-9):
            raise ValueError(f"correlations must lie in [{lo:g}, {hi:g}], got ({c}, {cp})")
    pair_terms = [abs(c + cp) for c, cp in correlations]
    value = 0.0
    for term in pair_terms:
        value += term
    value += kind.sine_coeff * math.sin(phi / 2.0)
    return {
        "kind": kind.tag,
        "phi_deg": math.degrees(phi),
        "value": value,
        "bound": kind.bound,
        "pair_terms": pair_terms,
        "violated": value > kind.bound,
    }


def corrected_correlation(model, f) -> float:
    """The readout-corrected correlation g . f of one reported distribution f,
    its four terms added left to right."""
    c = 0.0
    for g_j, f_j in zip(model._gain.tolist(), np.asarray(f, dtype=float).tolist()):
        c += g_j * f_j
    return c


def run_one(state, config, shots, seed, readout=ReadoutModel(), correct=False, step=0):
    """The block of one experiment of ``config`` at its own phi, at ``step``."""
    return run_experiments(state, config, [config.phi], shots, seed, readout, correct, step)
