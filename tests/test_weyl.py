"""Shift/clock pair, monomial basis, decomposition, and the scalar and
operator power-sum identities."""

import numpy as np
import pytest

from quditkit import (
    RootOfUnity,
    clock_matrix,
    fermat_power_residual,
    hs_inner,
    max_abs,
    pauli,
    reflection_matrix,
    rotated_basis_element,
    scalar_factorization_residuals,
    shift_matrix,
    tau_matrices,
    weyl_commutation_residual,
    weyl_commutator_coefficient,
    weyl_decompose,
    weyl_element,
    weyl_reconstruct,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def test_root_of_unity_invariants():
    for l in range(2, 20):
        root = RootOfUnity(l)
        assert abs(root.zeta**l - 1) <= 1e-14
        assert abs(root.nu**2 - root.zeta) <= 1e-14


def test_root_of_unity_rejects_small_order():
    with pytest.raises(ValueError):
        RootOfUnity(1)


class TestPairConstruction:
    def test_l2_shift_is_sigma1(self):
        assert max_abs(shift_matrix(2) - SIGMA1) == 0

    def test_l2_clock_is_sigma3(self):
        assert max_abs(clock_matrix(2) - SIGMA3) == 0

    def test_l3_shift_is_three_cycle(self):
        u = shift_matrix(3)
        assert max_abs(np.linalg.matrix_power(u, 3) - np.eye(3)) == 0
        assert max_abs(np.linalg.matrix_power(u, 2) - np.eye(3)) > 0.5

    @pytest.mark.parametrize("l", [2, 3, 4, 7, 16])
    def test_orders(self, l):
        assert max_abs(np.linalg.matrix_power(shift_matrix(l), l) - np.eye(l)) <= 1e-13
        assert max_abs(np.linalg.matrix_power(clock_matrix(l), l) - np.eye(l)) <= 1e-13

    def test_clock_entry_l4(self):
        assert clock_matrix(4)[1, 1] == pytest.approx(1j)

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 9])
    def test_clock_trace_vanishes(self, l):
        # geometric sum of all l-th roots of unity
        assert abs(np.trace(clock_matrix(l))) <= 1e-13

    @pytest.mark.parametrize("l", range(2, 65))
    def test_root_powers_are_the_clock_entries(self, l):
        # one table serves the scalars and the matrices: zeta^k is the clock's
        # k-th entry bit for bit, and nu^(2k) is zeta^k; the shift is the
        # plain cyclic permutation
        assert shift_matrix(l).tobytes() == np.roll(np.eye(l, dtype=complex), 1, axis=1).tobytes()
        root = RootOfUnity(l)
        zetas = np.array([root.zeta_power(k) for k in range(l)])
        assert zetas.tobytes() == clock_matrix(l).diagonal().tobytes()
        assert np.array([root.nu_power(2 * k) for k in range(l)]).tobytes() == zetas.tobytes()

    @pytest.mark.parametrize("l", range(2, 65))
    def test_quarter_turns_are_exact(self, l):
        # nu^k with 2k = 0 mod l is exactly 1, i, -1 or -i; every other power
        # has two nonzero parts
        root = RootOfUnity(l)
        for k in range(2 * l):
            z = root.nu_power(k)
            if 2 * k % l == 0:
                assert z == (1, 1j, -1, -1j)[2 * k // l]
            else:
                assert z.real != 0 and z.imag != 0

    def test_l2_pair_and_taus_are_the_pauli_bytes(self):
        # the literal Pauli matrices, -1j with its negative zero real part included
        assert clock_matrix(2).tobytes() == SIGMA3.tobytes() == pauli(3).tobytes()
        for i, (tau, sigma) in enumerate(zip(tau_matrices(2), (SIGMA1, SIGMA2, SIGMA3)), 1):
            assert tau.tobytes() == sigma.tobytes() == pauli(i).tobytes()

    def test_rejects_l_below_two(self):
        with pytest.raises(ValueError):
            shift_matrix(1)
        with pytest.raises(ValueError):
            clock_matrix(0)

    @pytest.mark.parametrize("l", [2, 3, 5])
    def test_commutation_residual(self, l):
        assert weyl_commutation_residual(l) <= 1e-14

    @pytest.mark.parametrize("l", [3, 5, 8])
    def test_clock_powers_commute(self, l):
        # diagonal representation of the cyclic group algebra
        v = clock_matrix(l)
        powers = [np.linalg.matrix_power(v, k) for k in range(l)]
        for p in powers:
            for q in powers:
                assert max_abs(p @ q - q @ p) <= 1e-15
        assert max_abs(powers[1] @ powers[l - 1] - np.eye(l)) <= 1e-14


class TestWeylElements:
    def test_zero_index_is_identity(self):
        assert max_abs(weyl_element(4, 0, 0) - np.eye(4)) == 0

    def test_l2_both_powers(self):
        expected = np.array([[0, -1], [1, 0]], dtype=complex)  # sigma1 @ sigma3
        assert max_abs(weyl_element(2, 1, 1) - expected) <= 1e-15

    @pytest.mark.parametrize("l", [2, 3, 5])
    def test_pure_shift(self, l):
        assert max_abs(weyl_element(l, 1, 0) - shift_matrix(l)) == 0

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    def test_matches_matrix_power_products(self, l):
        u, v = shift_matrix(l), clock_matrix(l)
        for a in range(l):
            for b in range(l):
                reference = np.linalg.matrix_power(u, a) @ np.linalg.matrix_power(v, b)
                assert max_abs(weyl_element(l, a, b) - reference) <= 1e-13

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            weyl_element(3, 3, 0)
        with pytest.raises(ValueError):
            weyl_element(3, 0, -1)


class TestDecomposition:
    def test_identity_has_single_coefficient(self):
        table = weyl_decompose(np.eye(3), 3)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 0] = 1
        assert max_abs(table - expected) <= 1e-14

    def test_sigma2_coefficient(self):
        # sigma2 = i * sigma1 @ sigma3, so only the (1, 1) slot survives
        table = weyl_decompose(SIGMA2, 2)
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 1] = 1j
        assert max_abs(table - expected) <= 1e-14

    def test_clock_is_basis_element(self):
        table = weyl_decompose(clock_matrix(3), 3)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1
        assert max_abs(table - expected) <= 1e-14

    def test_single_coefficient_reconstructs_shift(self):
        table = np.zeros((5, 5), dtype=complex)
        table[1, 0] = 1
        assert max_abs(weyl_reconstruct(table) - shift_matrix(5)) == 0

    @pytest.mark.parametrize("l", [2, 3, 4, 6])
    def test_roundtrip_on_random_matrices(self, l):
        rng = np.random.default_rng(100 + l)
        for _ in range(5):
            m = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
            table = weyl_decompose(m, l)
            assert max_abs(weyl_reconstruct(table) - m) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            weyl_decompose(np.eye(3), 4)

    @pytest.mark.parametrize("l", [2, 3, 5, 8])
    def test_monomials_orthonormal(self, l):
        elements = [weyl_element(l, a, b) for a in range(l) for b in range(l)]
        for p, ep in enumerate(elements):
            for q, eq in enumerate(elements):
                value = hs_inner(ep, eq, normalizer=l)
                assert abs(value - (1.0 if p == q else 0.0)) <= 1e-12


class TestReflection:
    def test_l2_is_sigma1(self):
        assert max_abs(reflection_matrix(2) - SIGMA1) == 0

    def test_l3_antidiagonal(self):
        expected = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        assert max_abs(reflection_matrix(3) - expected) == 0

    @pytest.mark.parametrize("l", [2, 3, 4, 7])
    def test_involution(self, l):
        r = reflection_matrix(l)
        assert max_abs(r @ r - np.eye(l)) == 0


class TestRotatedBasis:
    def test_zero_index_is_reflection(self):
        assert max_abs(rotated_basis_element(3, 0, 0) - reflection_matrix(3)) == 0

    def test_l2_shift_times_reflection(self):
        # shift and reflection coincide at l=2, so the product is the identity
        assert max_abs(rotated_basis_element(2, 1, 0) - np.eye(2)) == 0

    @pytest.mark.parametrize("l", [3, 4])
    def test_orthonormal_family(self, l):
        elements = [rotated_basis_element(l, j, k) for j in range(l) for k in range(l)]
        for p, ep in enumerate(elements):
            for q, eq in enumerate(elements):
                value = hs_inner(ep, eq, normalizer=l)
                assert abs(value - (1.0 if p == q else 0.0)) <= 1e-12


class TestTauTriple:
    def test_l2_is_pauli_triple(self):
        t1, t2, t3 = tau_matrices(2)
        assert max_abs(t1 - SIGMA1) <= 1e-15
        assert max_abs(t2 - SIGMA2) <= 1e-15
        assert max_abs(t3 - SIGMA3) <= 1e-15

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 7])
    def test_orders(self, l):
        for t in tau_matrices(l):
            assert max_abs(np.linalg.matrix_power(t, l) - np.eye(l)) <= 1e-13

    @pytest.mark.parametrize("l", [2, 3, 5, 8])
    def test_pairwise_zeta_commutation(self, l):
        taus = tau_matrices(l)
        zeta = RootOfUnity(l).zeta
        for i in range(3):
            for j in range(i + 1, 3):
                assert max_abs(taus[i] @ taus[j] - zeta * taus[j] @ taus[i]) <= 1e-13


class TestPowerSumIdentities:
    def test_qubit_case_by_hand(self):
        # (sigma3 + sigma1)^2 = 2 by anticommutation
        assert fermat_power_residual(2, 1, 1) <= 1e-14

    def test_pure_clock_power(self):
        # (1*V + 0*U)^3 is V^3, identity up to the rounding in zeta itself
        assert fermat_power_residual(3, 1, 0) <= 1e-14

    def test_random_coefficients_l5(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a, b = a / max(1, abs(a)), b / max(1, abs(b))
            assert fermat_power_residual(5, a, b) <= 1e-10

    def test_scalar_worked_value(self):
        # 2^3 + 1^3 = 9 = 3 * (2 + zeta) * (2 + zeta^2)
        residual_odd, residual_nu = scalar_factorization_residuals(3, 2, 1)
        assert residual_odd is not None and residual_odd <= 1e-12
        assert residual_nu <= 1e-12

    def test_even_order_skips_plain_form(self):
        # (1 - i)(1 + i) = 2 = 1^2 + 1^2
        residual_odd, residual_nu = scalar_factorization_residuals(2, 1, 1)
        assert residual_odd is None
        assert residual_nu <= 1e-14

    def test_vanishing_second_argument(self):
        residual_odd, residual_nu = scalar_factorization_residuals(5, 1, 0)
        assert residual_odd <= 1e-14
        assert residual_nu <= 1e-14

    @pytest.mark.parametrize("l", range(2, 10))
    def test_scalar_forms_on_random_inputs(self, l):
        rng = np.random.default_rng(200 + l)
        for _ in range(5):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            residual_odd, residual_nu = scalar_factorization_residuals(l, a, b)
            assert residual_nu <= 1e-11 * max(1.0, abs(a) ** l + abs(b) ** l)
            if l % 2 == 1:
                assert residual_odd <= 1e-11 * max(1.0, abs(a) ** l + abs(b) ** l)


class TestCommutatorCoefficient:
    def test_worked_l3_example(self):
        zeta = RootOfUnity(3).zeta
        coefficient, index = weyl_commutator_coefficient(3, (1, 0), (0, 1))
        # zeta^(-1) equals zeta^2 at order 3
        assert abs(coefficient - (1 - zeta**2)) <= 1e-15
        assert index == (1, 1)

    def test_self_commutator_vanishes(self):
        coefficient, _ = weyl_commutator_coefficient(4, (2, 3), (2, 3))
        assert coefficient == 0

    def test_commuting_shift_powers(self):
        coefficient, index = weyl_commutator_coefficient(5, (1, 0), (2, 0))
        assert abs(coefficient) == 0
        assert index == (3, 0)

    @pytest.mark.parametrize("l", [2, 3])
    def test_against_brute_force_commutators(self, l):
        for a in range(l):
            for b in range(l):
                for c in range(l):
                    for d in range(l):
                        coefficient, (ri, rj) = weyl_commutator_coefficient(l, (a, b), (c, d))
                        w1 = weyl_element(l, a, b)
                        w2 = weyl_element(l, c, d)
                        brute = w1 @ w2 - w2 @ w1
                        expected = coefficient * weyl_element(l, ri, rj)
                        assert max_abs(brute - expected) <= 1e-13
