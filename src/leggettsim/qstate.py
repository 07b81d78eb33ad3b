"""Two-qubit state algebra: Bell and Werner states, correlation tensors,
joint outcome probabilities and fidelity conventions.

Basis order is |00>, |01>, |10>, |11> with Alice (nuclear spin) first and
Bob (electron spin) second; spin-up maps to 0 and spin-down to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNIT_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)

BELL_KINDS = ("phi_minus", "phi_plus", "psi_minus", "psi_plus")

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

    The matrix is a read-only copy of the one passed in, so the correlation
    tensor that ``correlation_tensor`` stores on the state cannot go stale.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidStateError(f"expected 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise InvalidStateError("matrix is not Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise InvalidStateError("trace differs from 1 by more than 1e-12")
        if np.linalg.eigvalsh(m).min() < -PSD_TOL:
            raise InvalidStateError("matrix has an eigenvalue below -1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def to_json_dict(self) -> dict:
        return {
            "density_matrix": [
                [[entry.real, entry.imag] for entry in row] for row in self.matrix
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TwoQubitState":
        rows = data["density_matrix"]
        m = np.array([[complex(re, im) for re, im in row] for row in rows])
        return cls(m)


@dataclass(frozen=True)
class CorrelationTensor:
    """Pauli correlation matrix T plus marginal Bloch vectors a, b (read-only copies)."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("t", "a", "b"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)


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


def amplitude_fidelity(visibility: float) -> float:
    """Fidelity convention sqrt(3V + 1)/2 for a Werner state of visibility V."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    return np.sqrt(3.0 * visibility + 1.0) / 2.0


def overlap_fidelity(visibility: float) -> float:
    """Raw Bell-state overlap (3V + 1)/4 of a Werner state."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
    return (3.0 * visibility + 1.0) / 4.0


def correlation_tensor(state: TwoQubitState) -> CorrelationTensor:
    """T_jk = Tr[rho (sigma_j x sigma_k)] plus the marginal Bloch vectors.

    Always builds; the result is also stored on the state, where
    ``joint_probabilities`` and ``correlation`` read it.
    """
    rho = state.matrix
    t = np.empty((3, 3))
    a = np.empty(3)
    b = np.empty(3)
    for j, sj in enumerate(PAULI):
        a[j] = _real_trace(rho @ np.kron(sj, IDENTITY_2))
        b[j] = _real_trace(rho @ np.kron(IDENTITY_2, sj))
        for k, sk in enumerate(PAULI):
            t[j, k] = _real_trace(rho @ np.kron(sj, sk))
    tensor = CorrelationTensor(t=t, a=a, b=b)
    object.__setattr__(state, "_tensor", tensor)
    return tensor


def _stored_tensor(state: TwoQubitState) -> CorrelationTensor:
    """The tensor stored on the state, built on first use."""
    tensor = state.__dict__.get("_tensor")
    return correlation_tensor(state) if tensor is None else tensor


def _real_trace(m: np.ndarray) -> float:
    tr = np.trace(m)
    if abs(tr.imag) > HERMITIAN_TOL:
        raise InvalidStateError(f"expectation value has imaginary part {tr.imag}")
    return tr.real


def _check_unit(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector, |{name}| = {np.linalg.norm(v)}")
    return v


def correlation(state: TwoQubitState, n, m) -> float:
    """Correlation function n^T T m for settings n (Alice) and m (Bob)."""
    n = _check_unit(n, "n")
    m = _check_unit(m, "m")
    value = float(n @ _stored_tensor(state).t @ m)
    return float(np.clip(value, -1.0, 1.0))


def joint_probabilities(state: TwoQubitState, n, m) -> np.ndarray:
    """Outcome probabilities P(alpha, beta) in order (++, +-, -+, --)."""
    n = _check_unit(n, "n")
    m = _check_unit(m, "m")
    tensor = _stored_tensor(state)
    an = float(tensor.a @ n)
    bm = float(tensor.b @ m)
    ntm = float(n @ tensor.t @ m)
    probs = np.array(
        [
            0.25 * (1 + alpha * an + beta * bm + alpha * beta * ntm)
            for alpha in (+1, -1)
            for beta in (+1, -1)
        ]
    )
    if probs.min() < -1e-12:
        raise InvalidStateError(f"negative joint probability {probs.min()}")
    return np.clip(probs, 0.0, None)
