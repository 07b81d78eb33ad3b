"""Two-qubit state algebra: Bell and Werner states, correlation tensors,
joint outcome probabilities and fidelity conventions.

Basis order is |00>, |01>, |10>, |11> with Alice (nuclear spin) first and
Bob (electron spin) second; spin-up maps to 0 and spin-down to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# defined in the numpy-free inequalities module and re-exported here
from .inequalities import BELL_KINDS, amplitude_fidelity  # noqa: F401

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNIT_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)


def _frozen(m: np.ndarray) -> np.ndarray:
    """``m``, made read-only."""
    m.setflags(write=False)
    return m


# _KRON[j, k] = np.kron(sigma_j, sigma_k), sigma_0 the identity: every
# product a tensor needs, each entry one multiply as np.kron makes it, built
# at import in one pass
_SIGMA = np.array([IDENTITY_2, *PAULI])
_KRON = _frozen(
    (_SIGMA[:, None, :, None, :, None] * _SIGMA[None, :, None, :, None, :]).reshape(4, 4, 4, 4)
)

_BELL_VECTORS = {
    # amplitudes over |00>, |01>, |10>, |11>
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
}


class InvalidStateError(ValueError):
    """Raised when a density matrix violates the state invariants."""


@dataclass(frozen=True)
class TwoQubitState:
    """A 4x4 density matrix; validated to be Hermitian, unit-trace, PSD.

    The matrix is a read-only copy of the one passed in, so ``tensor``,
    built on first use and kept, cannot go stale.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidStateError(f"expected 4x4 matrix, got shape {m.shape}")
        # each test is written "not ok" so that NaN fails it
        if not np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL:
            raise InvalidStateError("matrix is not Hermitian to 1e-12")
        trace = np.trace(m)
        if not (abs(trace.real - 1.0) <= TRACE_TOL and abs(trace.imag) <= TRACE_TOL):
            raise InvalidStateError("trace differs from 1 by more than 1e-12")
        if not np.linalg.eigvalsh(m).min() >= -PSD_TOL:
            raise InvalidStateError("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", _frozen(m))

    @cached_property
    def tensor(self) -> CorrelationTensor:
        """The state's correlation tensor, built on first use."""
        return correlation_tensor(self)


@dataclass(frozen=True)
class CorrelationTensor:
    """Pauli correlation matrix T plus marginal Bloch vectors a, b (read-only copies)."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("t", "a", "b"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))


def bell_state(kind: str) -> TwoQubitState:
    """Density matrix of the named Bell state.

    phi_minus is (|00> - |11>)/sqrt(2), the experimentally relevant state
    under the spin-up -> 0 mapping.
    """
    if kind not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell state kind: {kind!r}")
    psi = _BELL_VECTORS[kind]
    return TwoQubitState(np.outer(psi, psi.conj()))


def werner(visibility: float, base: str = "phi_minus") -> TwoQubitState:
    """Werner mixture V * |bell><bell| + (1 - V) * I/4."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    rho = bell_state(base).matrix
    return TwoQubitState(visibility * rho + (1.0 - visibility) * np.eye(4) / 4.0)


def correlation_tensor(state: TwoQubitState) -> CorrelationTensor:
    """T_jk = Tr[rho (sigma_j x sigma_k)] plus the marginal Bloch vectors.

    Always builds; ``state.tensor`` keeps one build per state.  The 15
    Kronecker products come from ``_KRON``, built once at import.
    """
    rho = state.matrix
    t = np.empty((3, 3))
    a = np.empty(3)
    b = np.empty(3)
    for j in range(3):
        a[j] = _real_trace(rho @ _KRON[j + 1, 0])
        b[j] = _real_trace(rho @ _KRON[0, j + 1])
        for k in range(3):
            t[j, k] = _real_trace(rho @ _KRON[j + 1, k + 1])
    return CorrelationTensor(t=t, a=a, b=b)


def _real_trace(m: np.ndarray) -> float:
    tr = np.trace(m)
    if abs(tr.imag) > HERMITIAN_TOL:
        raise InvalidStateError(f"expectation value has imaginary part {tr.imag}")
    return tr.real


def _rowdot(x: np.ndarray, y: np.ndarray):
    """Dot product of x with y along the last axis, row by row.

    x is (3,) or (S, 3); y is (3,) or shaped like x.  Each row's bits equal
    those of ``float(x_i @ y_i)``; plain ``x @ y`` on a stack does not
    guarantee that.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _check_unit(vec, name: str) -> np.ndarray:
    """``vec`` as floats, checked to be one unit 3-vector."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    # the bits of np.linalg.norm(v), without its overhead
    _check_norms([math.sqrt(float(v @ v))], name)
    return v


def _check_unit_rows(vecs, name: str) -> np.ndarray:
    """``vecs`` as floats: one unit 3-vector, or a stack of them, shape (S, 3)."""
    v = np.asarray(vecs, dtype=float)
    if v.ndim != 2:
        return _check_unit(v, name)
    if v.shape[1] != 3:
        raise ValueError(f"{name} must be a stack of 3-vectors, got shape {v.shape}")
    _check_norms(np.sqrt(_rowdot(v, v)).tolist(), name)
    return v


def _check_norms(norms, name: str):
    for norm in norms:
        # "not within tolerance" rather than "beyond it", so that NaN fails
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise ValueError(f"{name} must be a unit vector, |{name}| = {norm}")


def correlation(state: TwoQubitState, n, m) -> float:
    """Correlation function n^T T m for settings n (Alice) and m (Bob)."""
    n = _check_unit(n, "n")
    m = _check_unit(m, "m")
    value = float(n @ state.tensor.t @ m)
    return float(np.clip(value, -1.0, 1.0))


# outcome signs (alpha, beta, alpha * beta) in the order (++, +-, -+, --)
_ALPHA = np.array([1.0, 1.0, -1.0, -1.0])
_BETA = np.array([1.0, -1.0, 1.0, -1.0])
_ALPHA_BETA = _ALPHA * _BETA


def joint_probabilities(state: TwoQubitState, n, m) -> np.ndarray:
    """Outcome probabilities P(alpha, beta) in order (++, +-, -+, --).

    One setting, n and m of shape (3,), gives shape (4,).  S settings
    stacked as (S, 3) arrays give (S, 4), whose row i has the bits of the
    call on row i alone.
    """
    n = _check_unit_rows(n, "n")
    m = _check_unit_rows(m, "m")
    if n.shape != m.shape:
        raise ValueError(f"n and m must have one shape, got {n.shape} and {m.shape}")
    tensor = state.tensor
    an = _rowdot(n, tensor.a)[..., None]
    bm = _rowdot(m, tensor.b)[..., None]
    ntm = _rowdot(n @ tensor.t, m)[..., None]
    probs = 0.25 * (1.0 + _ALPHA * an + _BETA * bm + _ALPHA_BETA * ntm)
    lowest = probs.min()
    if not lowest >= -1e-12:
        raise InvalidStateError(f"negative joint probability {lowest}")
    return np.clip(probs, 0.0, None)
