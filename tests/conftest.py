import numpy as np
from hypothesis import strategies as st

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


def one_pair(u, e_hat, phi):
    """A configuration of the one setting pair with bisector u, direction e_hat."""
    return SettingsConfig(alice=(Z,), u=(u,), e_hat=(e_hat,), pairing=(0,), phi=phi, kind=I26)


def correlation(state, n, m) -> float:
    """n^T T m for settings n (Alice) and m (Bob), clipped to [-1, 1].

    The test reference for the n.T.m term of ``joint_probabilities``.
    """
    n = _check_unit(n, "n")
    m = _check_unit(m, "m")
    return float(np.clip(float(n @ state.tensor.t @ m), -1.0, 1.0))
