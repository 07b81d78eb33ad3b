"""Two-qubit state algebra: Bell and Werner states, correlation tensors
and joint outcome probabilities.

Basis order is |00>, |01>, |10>, |11> with Alice (nuclear spin) first and
Bob (electron spin) second; spin-up maps to 0 and spin-down to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .inequalities import _check_visibility

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNIT_TOL = 1e-9


def _frozen(m: np.ndarray) -> np.ndarray:
    """``m``, made read-only."""
    m.setflags(write=False)
    return m


SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = _frozen(np.eye(2, dtype=complex))

# _KRON[j, k] = np.kron(sigma_j, sigma_k), sigma_0 the identity: every
# product a tensor needs, each entry one multiply as np.kron makes it, built
# at import in one pass
_SIGMA = np.array([IDENTITY_2, *PAULI])
_KRON = _frozen(
    (_SIGMA[:, None, :, None, :, None] * _SIGMA[None, :, None, :, None, :]).reshape(4, 4, 4, 4)
)

_BELL_VECTORS = {
    # amplitudes over |00>, |01>, |10>, |11>
    "phi_minus": _frozen(np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)),
    "phi_plus": _frozen(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)),
    "psi_minus": _frozen(np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)),
    "psi_plus": _frozen(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)),
}


class InvalidStateError(ValueError):
    """Raised when a density matrix violates the state invariants."""


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A 4x4 density matrix; validated to be Hermitian, unit-trace, PSD.

    The matrix is a read-only copy of the Hermitian part (m + m^H)/2 of the
    one passed in, so every expectation value is real, and ``tensor``,
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
        m = (m + m.conj().T) / 2.0
        if not abs(np.trace(m).real - 1.0) <= TRACE_TOL:
            raise InvalidStateError("trace differs from 1 by more than 1e-12")
        if not np.linalg.eigvalsh(m).min() >= -PSD_TOL:
            raise InvalidStateError("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", _frozen(m))

    @cached_property
    def tensor(self) -> CorrelationTensor:
        """The state's correlation tensor, built on first use."""
        return correlation_tensor(self)


@dataclass(frozen=True, eq=False)
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
    _check_visibility(visibility)
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
        a[j] = np.trace(rho @ _KRON[j + 1, 0]).real
        b[j] = np.trace(rho @ _KRON[0, j + 1]).real
        for k in range(3):
            t[j, k] = np.trace(rho @ _KRON[j + 1, k + 1]).real
    return CorrelationTensor(t=t, a=a, b=b)


def _rowdot(x: np.ndarray, y: np.ndarray):
    """Dot product of the (S, 3) stack x with y, (3,) or (S, 3), row by row.

    Each row's bits equal those of ``float(x_i @ y_i)``; plain ``x @ y`` on
    a stack does not guarantee that.
    """
    return (x[:, None, :] @ y[..., :, None])[:, 0, 0]


def _check_unit(vec, name: str) -> np.ndarray:
    """``vec`` as floats, checked to be one unit 3-vector."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    _check_norms(np.sqrt(_rowdot(v[None], v)), name)
    return v


def _check_unit_rows(vecs, name: str) -> np.ndarray:
    """``vecs`` as floats, checked to be a stack of unit 3-vectors, shape (S, 3)."""
    v = np.asarray(vecs, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError(f"{name} must be a stack of 3-vectors, got shape {v.shape}")
    _check_norms(np.sqrt(_rowdot(v, v)), name)
    return v


def _check_norms(norms: np.ndarray, name: str):
    """Raise on the first of ``norms`` more than UNIT_TOL from 1."""
    # "not within tolerance" rather than "beyond it", so that NaN fails
    bad = ~(np.abs(norms - 1.0) <= UNIT_TOL)
    if bad.any():
        norm = float(norms[bad.argmax()])
        raise ValueError(f"{name} must be a unit vector, |{name}| = {norm}")


# outcome signs (alpha, beta, alpha * beta) in the order (++, +-, -+, --)
_ALPHA = _frozen(np.array([1.0, 1.0, -1.0, -1.0]))
_BETA = _frozen(np.array([1.0, -1.0, 1.0, -1.0]))
_ALPHA_BETA = _frozen(_ALPHA * _BETA)


def joint_probabilities(state: TwoQubitState, n, m) -> np.ndarray:
    """Outcome probabilities P(alpha, beta) in order (++, +-, -+, --).

    S settings, n and m stacked as (S, 3) arrays, give (S, 4), whose row i
    has the bits of a call on row i alone.  Probabilities are clipped at 0;
    one below -PSD_TOL, which no valid state gives, raises InvalidStateError.
    """
    n = _check_unit_rows(n, "n")
    m = _check_unit_rows(m, "m")
    if n.shape != m.shape:
        raise ValueError(f"n and m must have one shape, got {n.shape} and {m.shape}")
    tensor = state.tensor
    an = _rowdot(n, tensor.a)[:, None]
    bm = _rowdot(m, tensor.b)[:, None]
    ntm = _rowdot(n @ tensor.t, m)[:, None]
    probs = 0.25 * (1.0 + _ALPHA * an + _BETA * bm + _ALPHA_BETA * ntm)
    lowest = probs.min()
    if not lowest >= -PSD_TOL:
        raise InvalidStateError(f"negative joint probability {lowest}")
    return np.clip(probs, 0.0, None)
