"""Kernel-level checks: adjoints, inner products, exponentials, and the
incremental orthonormalization step."""

import numpy as np
import pytest

from quditkit import (
    dagger,
    hs_inner,
    hs_norm,
    matrix_exp,
    max_abs,
    orthonormal_extend,
    pauli,
    shift_matrix,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


class TestDagger:
    def test_hermitian_fixed_point(self):
        assert max_abs(dagger(SIGMA2) - SIGMA2) == 0

    def test_shift_adjoint_is_inverse_power(self):
        u = shift_matrix(3)
        assert max_abs(dagger(u) - np.linalg.matrix_power(u, 2)) == 0

    def test_scalar_conjugation(self):
        assert max_abs(dagger(1j * np.eye(2)) - (-1j) * np.eye(2)) == 0

    def test_product_rule(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert max_abs(dagger(a @ b) - dagger(b) @ dagger(a)) <= 1e-14


class TestHsInner:
    def test_identity_normalized(self):
        for d in (2, 3, 5):
            assert hs_inner(np.eye(d), np.eye(d)) == pytest.approx(1.0)

    def test_shift_clock_orthogonal(self):
        from quditkit import clock_matrix

        # shift has zero diagonal, so the trace against a diagonal matrix vanishes
        value = hs_inner(shift_matrix(3), clock_matrix(3))
        assert abs(value) <= 1e-15

    def test_pauli_unit_norm(self):
        assert hs_inner(SIGMA1, SIGMA1, normalizer=2) == pytest.approx(1.0)

    def test_positive_definite(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            value = hs_inner(a, a)
            assert abs(value.imag) <= 1e-14
            assert value.real > 0
        assert hs_norm(np.zeros((3, 3))) == 0

    def test_rejects_bad_normalizer(self):
        with pytest.raises(ValueError, match="positive"):
            hs_inner(SIGMA1, SIGMA1, normalizer=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hs_inner(np.eye(2), np.eye(3))


class TestMatrixExp:
    def test_zero_gives_identity(self):
        assert max_abs(matrix_exp(np.zeros((3, 3))) - np.eye(3)) == 0

    def test_quarter_turn_of_sigma1(self):
        got = matrix_exp(1j * SIGMA1 * np.pi / 2)
        assert max_abs(got - 1j * SIGMA1) <= 1e-15

    def test_diagonal_closed_form(self):
        for tau in np.linspace(-2.0, 2.0, 9):
            got = matrix_exp(1j * SIGMA3 * tau)
            expected = np.diag([np.exp(1j * tau), np.exp(-1j * tau)])
            assert max_abs(got - expected) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rotation_closed_form_on_grid(self, k):
        sigma = pauli(k)
        for tau in np.linspace(-np.pi, np.pi, 13):
            got = matrix_exp(1j * sigma * tau)
            expected = np.cos(tau) * np.eye(2) + 1j * np.sin(tau) * sigma
            assert max_abs(got - expected) <= 1e-12

    def test_against_defining_series(self):
        # plain partial sums of the power series as the independent reference
        rng = np.random.default_rng(23)
        for _ in range(5):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            x = 0.4j * (h + h.conj().T)  # normal, modest norm: series is reliable
            reference = np.eye(4, dtype=complex)
            term = np.eye(4, dtype=complex)
            for j in range(1, 40):
                term = term @ x / j
                reference += term
            got = matrix_exp(x)
            assert max_abs(got - reference) <= 1e-12 * max(1.0, max_abs(reference))

    def test_nilpotent_series_path(self):
        # strictly upper triangular is as non-normal as it gets; exp is 1 + N
        n = np.array([[0, 2.0], [0, 0]], dtype=complex)
        assert max_abs(matrix_exp(n) - (np.eye(2) + n)) <= 1e-15

    def test_antihermitian_gives_unitary(self):
        rng = np.random.default_rng(31)
        for d in (2, 4, 6):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = a - a.conj().T
            u = matrix_exp(x)
            assert max_abs(u @ u.conj().T - np.eye(d)) <= 1e-11

    @pytest.mark.parametrize("kind", ["hermitian", "antihermitian", "normal", "nonnormal"])
    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_matches_scipy_expm(self, kind, d):
        # scipy is not a dependency; where it is installed it is an independent reference
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(41 + d)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = {
            "hermitian": a + a.conj().T,
            "antihermitian": a - a.conj().T,
            "normal": 1.7 * shift_matrix(d),  # normal, not Hermitian: the series path
            "nonnormal": a,
        }[kind]
        reference = expm(x)
        assert max_abs(matrix_exp(x) - reference) <= 1e-13 * max_abs(reference)


class TestOrthonormalExtend:
    def test_duplicate_rejected(self):
        result = orthonormal_extend([SIGMA1 / np.sqrt(2) * np.sqrt(2)], SIGMA1, normalizer=2)
        assert not result.accepted
        assert result.residual_norm <= 1e-14
        assert result.new_element is None

    def test_scaling_normalized_away(self):
        result = orthonormal_extend([], 2 * SIGMA1, normalizer=2)
        assert result.accepted
        assert max_abs(result.new_element - SIGMA1) <= 1e-15

    def test_projection_leaves_orthogonal_part(self):
        # (sigma1 + sigma3) minus its sigma1 component is exactly sigma3
        result = orthonormal_extend([SIGMA1], SIGMA1 + SIGMA3, normalizer=2)
        assert result.accepted
        assert max_abs(result.new_element - SIGMA3) <= 1e-15

    def test_zero_candidate_rejected(self):
        result = orthonormal_extend([], np.zeros((2, 2)))
        assert not result.accepted
        assert result.residual_norm == 0.0

    def test_default_normalizer_is_dimension(self):
        result = orthonormal_extend([], 2 * SIGMA1)
        assert max_abs(result.new_element - SIGMA1) <= 1e-15

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            orthonormal_extend([SIGMA1], SIGMA1 + SIGMA3, tol=tol)
