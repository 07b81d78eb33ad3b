import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import correlation, unit_vectors
from leggettsim import qstate
from leggettsim.inequalities import amplitude_fidelity
from leggettsim.qstate import (
    UNIT_TOL,
    CorrelationTensor,
    InvalidStateError,
    TwoQubitState,
    bell_state,
    correlation_tensor,
    joint_probabilities,
    werner,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def statevector_tensor(psi):
    """Independent oracle: T_jk from explicit statevector expectations."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    paulis = (sx, sy, sz)
    t = np.empty((3, 3))
    for j in range(3):
        for k in range(3):
            t[j, k] = (psi.conj() @ np.kron(paulis[j], paulis[k]) @ psi).real
    return t


class TestBellStates:
    def test_phi_minus_matrix(self):
        m = bell_state("phi_minus").matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        expected[0, 3] = expected[3, 0] = -0.5
        assert np.allclose(m, expected, atol=1e-15)

    def test_psi_minus_singlet_tensor(self):
        psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        expected = statevector_tensor(psi)
        assert np.allclose(expected, -np.eye(3), atol=1e-12)
        t = correlation_tensor(bell_state("psi_minus")).t
        assert np.allclose(t, -np.eye(3), atol=1e-12)

    def test_phi_minus_tensor(self):
        t = correlation_tensor(bell_state("phi_minus")).t
        assert np.allclose(t, np.diag([-1.0, 1.0, 1.0]), atol=1e-12)

    def test_self_fidelity(self):
        rho = bell_state("phi_minus").matrix
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", list(qstate._BELL_VECTORS))
    def test_maximally_entangled_tensor(self, kind):
        tensor = correlation_tensor(bell_state(kind))
        assert abs(abs(np.linalg.det(tensor.t)) - 1.0) < 1e-10
        assert np.allclose(tensor.a, 0.0, atol=1e-12)
        assert np.allclose(tensor.b, 0.0, atol=1e-12)
        assert np.allclose(tensor.t.T @ tensor.t, np.eye(3), atol=1e-10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            bell_state("sigma_plus")


class TestWerner:
    def test_v1_is_bell(self):
        assert np.allclose(
            werner(1.0, "phi_minus").matrix, bell_state("phi_minus").matrix, atol=1e-15
        )

    def test_v0_is_white_noise(self):
        st0 = werner(0.0)
        assert np.allclose(st0.matrix, np.eye(4) / 4, atol=1e-15)
        assert np.allclose(correlation_tensor(st0).t, 0.0, atol=1e-12)

    def test_half_visibility_zz(self):
        assert correlation(werner(0.5, "psi_minus"), Z, Z) == pytest.approx(
            -0.5, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            werner(bad)

    @given(st.floats(0, 1))
    @settings(max_examples=20)
    def test_tensor_scales_linearly(self, v):
        base = correlation_tensor(werner(1.0, "psi_minus")).t
        scaled = correlation_tensor(werner(v, "psi_minus")).t
        assert np.allclose(scaled, v * base, atol=1e-12)

    def test_point_nine_psi_minus(self):
        t = correlation_tensor(werner(0.9, "psi_minus")).t
        assert np.allclose(t, -0.9 * np.eye(3), atol=1e-12)


class TestFidelity:
    def test_values(self):
        assert amplitude_fidelity(1.0) == pytest.approx(1.0, abs=1e-12)
        assert amplitude_fidelity(0.942809) == pytest.approx(0.978318, abs=1e-6)
        assert amplitude_fidelity(0.912871) == pytest.approx(0.966775, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            amplitude_fidelity(1.5)


class TestCorrelation:
    def test_singlet_anticorrelation(self):
        assert correlation(bell_state("psi_minus"), Z, Z) == pytest.approx(-1.0)

    def test_phi_minus_xx(self):
        assert correlation(bell_state("phi_minus"), X, X) == pytest.approx(-1.0)

    def test_werner_isotropic(self):
        n = np.array([1.0, 2.0, -1.0])
        n /= np.linalg.norm(n)
        assert correlation(werner(0.95, "psi_minus"), n, n) == pytest.approx(
            -0.95, abs=1e-12
        )

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            correlation(bell_state("psi_minus"), 2 * Z, Z)

    @given(unit_vectors(), unit_vectors(), unit_vectors())
    @settings(max_examples=50)
    def test_bilinear_in_tensor_form(self, n1, n2, m):
        t = correlation_tensor(bell_state("phi_plus")).t
        c1, c2 = 0.3, -1.7
        combo = (c1 * n1 + c2 * n2) @ t @ m
        assert combo == pytest.approx(c1 * (n1 @ t @ m) + c2 * (n2 @ t @ m), abs=1e-12)


class TestJointProbabilities:
    def test_singlet_zz(self):
        p = joint_probabilities(bell_state("psi_minus"), [Z], [Z])[0]
        assert np.allclose(p, [0.0, 0.5, 0.5, 0.0], atol=1e-12)

    def test_maximally_mixed(self):
        p = joint_probabilities(werner(0.0), [X], [Y])[0]
        assert np.allclose(p, 0.25, atol=1e-12)

    def test_werner_formula(self):
        p = joint_probabilities(werner(0.8, "psi_minus"), [Z], [Z])[0]
        assert p[0] == pytest.approx(0.05, abs=1e-12)

    @given(st.floats(0, 1), unit_vectors(), unit_vectors())
    @settings(max_examples=50)
    def test_sum_and_correlation_consistency(self, v, n, m):
        state = werner(v, "phi_minus")
        p = joint_probabilities(state, [n], [m])[0]
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        signed = p[0] - p[1] - p[2] + p[3]
        assert signed == pytest.approx(correlation(state, n, m), abs=1e-12)


class TestStacked:
    def test_unit_check_per_row(self):
        rows = np.array([X, Y, Z])
        assert qstate._check_unit_rows(rows, "n").shape == (3, 3)
        rows[1] *= 1.0 + 10 * UNIT_TOL
        with pytest.raises(ValueError, match=r"\|n\| = 1.00000001"):
            qstate._check_unit_rows(rows, "n")
        # the first bad row is named, whatever follows it
        rows[2] *= 2.0
        with pytest.raises(ValueError, match=r"\|n\| = 1.00000001$"):
            qstate._check_unit_rows(rows, "n")

    # a single 3-vector is not a stack either
    @pytest.mark.parametrize("shape", [(), (4,), (2, 2), (1, 2, 3), (3,)])
    def test_unit_check_shapes(self, shape):
        with pytest.raises(ValueError, match="3-vector"):
            qstate._check_unit_rows(np.ones(shape), "n")

    def test_single_vector_check_rejects_stacks(self):
        with pytest.raises(ValueError, match="must be a 3-vector"):
            qstate._check_unit(np.array([X, Y]), "u")

    def test_mismatched_stacks(self):
        with pytest.raises(ValueError, match="one shape"):
            joint_probabilities(werner(0.5), np.array([X, Y]), [Z])


class TestNanRejected:
    def test_unit_vector(self):
        with pytest.raises(ValueError, match="unit vector"):
            qstate._check_unit([np.nan, 0.0, 0.0], "n")
        with pytest.raises(ValueError, match="unit vector"):
            qstate._check_unit_rows([X, [0.0, np.nan, 0.0]], "n")

    def test_setting(self):
        with pytest.raises(ValueError):
            joint_probabilities(werner(0.5), [[np.nan, 0.0, 0.0]], [Z])

    def test_state(self):
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = np.nan
        with pytest.raises(InvalidStateError):
            TwoQubitState(m)

    def test_probabilities(self):
        # a tensor no valid state has, so that only the probability check
        # stands between it and the caller
        state = werner(0.5)
        nan = np.full(3, np.nan)
        state.__dict__["tensor"] = CorrelationTensor(t=np.eye(3), a=nan, b=nan)
        with pytest.raises(InvalidStateError, match="negative joint probability nan"):
            joint_probabilities(state, [Z], [Z])


class TestStateValidation:
    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(InvalidStateError):
            TwoQubitState(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidStateError):
            TwoQubitState(np.eye(4, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidStateError):
            TwoQubitState(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))

    def test_hermitian_part_kept(self):
        # an anti-Hermitian part within the tolerance would give each
        # expectation value an imaginary part of up to 1.8e-12
        m = werner(0.9).matrix.copy()
        for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
            m[i, j] += 0.45e-12j
        state = TwoQubitState(m)
        assert same_bits(state.tensor, werner(0.9).tensor)
        assert np.array_equal(state.matrix, werner(0.9).matrix)

    def test_random_matrix_stored_hermitian(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            noise = rng.uniform(-2e-13, 2e-13, size=(4, 4)) * (1.0 + 1j)
            np.fill_diagonal(noise, 0.0)
            m = random_state(rng).matrix + noise
            state = TwoQubitState(m)
            assert np.array_equal(state.matrix, state.matrix.conj().T)
            assert np.array_equal(state.matrix, (m + m.conj().T) / 2)

    @pytest.mark.parametrize("base", list(qstate._BELL_VECTORS))
    def test_werner_stored_bit_for_bit(self, base):
        for v in (0.0, 0.37, 0.6, 0.98, 1.0):
            rho = v * bell_state(base).matrix + (1.0 - v) * np.eye(4) / 4.0
            assert werner(v, base).matrix.tobytes() == rho.tobytes()

    def test_accepted_state_has_probabilities(self):
        # V slightly above 1: the least eigenvalue (1 - V)/4 = -5e-11 lies
        # within PSD_TOL, and so does P(+-) at (Z, Z), which is clipped
        v = 1.0 + 2e-10
        m = v * bell_state("phi_minus").matrix + (1.0 - v) * np.eye(4) / 4.0
        state = TwoQubitState(m)
        assert np.linalg.eigvalsh(state.matrix).min() >= -qstate.PSD_TOL
        p = joint_probabilities(state, [Z], [Z])[0]
        assert p.min() == 0.0 and p[1] == 0.0 and p[2] == 0.0



def random_state(rng) -> TwoQubitState:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def same_bits(x: CorrelationTensor, y: CorrelationTensor) -> bool:
    return all(
        getattr(x, name).tobytes() == getattr(y, name).tobytes() for name in ("t", "a", "b")
    )


class TestTensorCache:
    @pytest.mark.parametrize("v", [0.0, 0.37, 0.98, 1.0])
    def test_stored_equals_rebuild_werner(self, v):
        state = werner(v)
        joint_probabilities(state, [Z], [X])
        stored = state.tensor
        assert same_bits(stored, correlation_tensor(TwoQubitState(state.matrix)))

    def test_stored_equals_rebuild_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            state = random_state(rng)
            correlation(state, X, Y)
            stored = state.tensor
            assert same_bits(stored, correlation_tensor(TwoQubitState(state.matrix)))

    def test_built_once_per_state(self, monkeypatch):
        builds = []
        build = qstate.correlation_tensor

        def counting(state):
            builds.append(state)
            return build(state)

        monkeypatch.setattr(qstate, "correlation_tensor", counting)
        state = werner(0.9)
        for n, m in ((Z, Z), (X, Y), (Y, Z)):
            joint_probabilities(state, [n], [m])
            correlation(state, n, m)
        assert builds == [state]

    def test_tensor_kept_on_state(self):
        state = werner(0.8)
        tensor = state.tensor
        assert state.tensor is tensor
        # the builder is pure: it neither reads nor replaces the kept tensor
        rebuilt = correlation_tensor(state)
        assert rebuilt is not tensor and same_bits(rebuilt, tensor)
        assert state.tensor is tensor

    def test_matrix_read_only(self):
        state = werner(0.9)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["t", "a", "b"])
    def test_tensor_read_only(self, name):
        tensor = correlation_tensor(werner(0.9))
        with pytest.raises(ValueError):
            getattr(tensor, name)[0] = 0.5

    def test_caller_array_not_frozen(self):
        m = bell_state("psi_minus").matrix.copy()
        state = TwoQubitState(m)
        assert m.flags.writeable
        m[0, 0] = 7.0
        assert state.matrix[0, 0] == 0.0

    def test_caller_tensor_arrays_not_frozen(self):
        t, a, b = np.eye(3), np.zeros(3), np.zeros(3)
        CorrelationTensor(t=t, a=a, b=b)
        assert t.flags.writeable and a.flags.writeable and b.flags.writeable


def reference_correlation_tensor(state: TwoQubitState):
    """(t, a, b) with one np.kron per entry, the body the stored products replaced."""
    rho = state.matrix
    eye = np.eye(2, dtype=complex)
    t = np.empty((3, 3))
    a = np.empty(3)
    b = np.empty(3)
    for j, sj in enumerate(qstate.PAULI):
        a[j] = np.trace(rho @ np.kron(sj, eye)).real
        b[j] = np.trace(rho @ np.kron(eye, sj)).real
        for k, sk in enumerate(qstate.PAULI):
            t[j, k] = np.trace(rho @ np.kron(sj, sk)).real
    return t, a, b


class TestTensorReference:
    def check(self, state):
        tensor = correlation_tensor(state)
        for name, expected in zip(("t", "a", "b"), reference_correlation_tensor(state)):
            assert np.array_equal(getattr(tensor, name), expected)
            assert getattr(tensor, name).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("base", list(qstate._BELL_VECTORS))
    @pytest.mark.parametrize("v", [0.0, 0.37, 0.71, 0.98, 1.0])
    def test_werner(self, v, base):
        self.check(werner(v, base))

    def test_random_full_rank(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            state = random_state(rng)
            assert np.linalg.eigvalsh(state.matrix).min() > 0.0
            self.check(state)

    def test_products_equal_kron(self):
        sigmas = (np.eye(2, dtype=complex), *qstate.PAULI)
        for j, sj in enumerate(sigmas):
            for k, sk in enumerate(sigmas):
                assert qstate._KRON[j, k].tobytes() == np.kron(sj, sk).tobytes()
        with pytest.raises(ValueError):
            qstate._KRON[1, 1, 0, 0] = 2.0



# a write to any of these would move every later result
@pytest.mark.parametrize(
    "name", ["SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY_2", "_ALPHA", "_BETA", "_ALPHA_BETA"]
)
def test_module_constant_read_only(name):
    with pytest.raises(ValueError, match="read-only"):
        getattr(qstate, name)[0] = 0.6


@pytest.mark.parametrize("base", list(qstate._BELL_VECTORS))
def test_bell_vector_read_only(base):
    with pytest.raises(ValueError, match="read-only"):
        qstate._BELL_VECTORS[base][0] = 0.6
