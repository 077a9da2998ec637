"""Closure engine: preprocessing, dimension counting, determinism, and the
gate construction from arbitrary generators."""

import contextlib
import io

import numpy as np
import pytest

from quditkit import (
    COMPLEX_TRACELESS,
    GeneratorSet,
    REAL_ANTIHERMITIAN,
    biproducts,
    clifford_generators,
    closure,
    dagger,
    gate_from_generator,
    hermitian_split,
    hs_inner,
    is_universal,
    matrix_exp,
    max_abs,
    named_generator_set,
    pauli,
    prepare_generators,
    qudit_universal_set,
    shift_matrix,
    traceless_project,
    universal_augmentation,
)
from quditkit import cli
from quditkit.universality import _dense_closure


class TestTracelessProject:
    def test_identity_maps_to_zero(self):
        assert max_abs(traceless_project(np.eye(4))) <= 1e-15

    def test_traceless_fixed_point(self):
        assert max_abs(traceless_project(pauli(1)) - pauli(1)) == 0

    def test_subtracts_mean_diagonal(self):
        got = traceless_project(np.diag([2.0 + 0j, 0.0 + 0j]))
        assert max_abs(got - pauli(3)) == 0

    def test_output_trace_vanishes(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert abs(np.trace(traceless_project(m))) <= 1e-13


class TestHermitianSplit:
    def test_hermitian_input(self):
        first, second = hermitian_split(pauli(1))
        assert max_abs(first - 2j * pauli(1)) <= 1e-15
        assert max_abs(second) == 0

    def test_antihermitian_input(self):
        m = 1j * pauli(2)
        first, second = hermitian_split(m)
        assert max_abs(first) <= 1e-15
        assert max_abs(second - 2 * m) <= 1e-15

    def test_both_parts_antihermitian(self):
        u = shift_matrix(3)
        for part in hermitian_split(u):
            assert max_abs(part + dagger(part)) <= 1e-14

    def test_recovers_input(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        first, second = hermitian_split(m)
        assert max_abs((-1j * first + second) / 2 - m) <= 1e-14


class TestClosureSmall:
    def test_two_paulis_span_su2(self):
        # the independent check: [s1, s3] = -2i s2, so all three directions appear
        brute = pauli(1) @ pauli(3) - pauli(3) @ pauli(1)
        assert max_abs(brute - (-2j) * pauli(2)) <= 1e-15
        gen = prepare_generators([1j * pauli(1), 1j * pauli(3)], REAL_ANTIHERMITIAN)
        result = closure(gen)
        assert result.achieved_dim == 3
        assert result.target_dim == 3
        assert result.universal

    def test_single_generator_stays_abelian(self):
        gen = prepare_generators([1j * pauli(1)], REAL_ANTIHERMITIAN)
        result = closure(gen)
        assert result.achieved_dim == 1
        assert not result.universal

    def test_full_basis_needs_no_rounds(self):
        gen = prepare_generators(
            [1j * pauli(1), 1j * pauli(2), 1j * pauli(3)], REAL_ANTIHERMITIAN
        )
        result = closure(gen)
        assert result.achieved_dim == 3
        assert result.universal
        assert result.rounds == 0

    def test_neighbor_commutators_close_on_biproducts(self):
        e = clifford_generators(2).matrices
        neighbors = [(e[j] @ e[j + 1] - e[j + 1] @ e[j]) / 2 for j in range(3)]
        gen = prepare_generators(neighbors, REAL_ANTIHERMITIAN)
        result = closure(gen)
        assert result.achieved_dim == 6
        assert not result.universal

    def test_augmented_set_is_universal(self):
        gen = prepare_generators(
            universal_augmentation(clifford_generators(2)), REAL_ANTIHERMITIAN
        )
        result = closure(gen)
        assert result.achieved_dim == 15
        assert result.universal

    def test_qudit_set_single_site(self):
        gen = prepare_generators(qudit_universal_set(3, 1), REAL_ANTIHERMITIAN)
        result = closure(gen)
        assert result.achieved_dim == 8
        assert result.universal

    def test_complex_mode_counts_complex_dimensions(self):
        gen = prepare_generators(qudit_universal_set(3, 1), COMPLEX_TRACELESS)
        result = closure(gen)
        assert result.achieved_dim == 8
        assert result.universal


class TestClosureProperties:
    def test_monotone_under_set_growth(self):
        small = prepare_generators([1j * pauli(1)], REAL_ANTIHERMITIAN)
        large = prepare_generators([1j * pauli(1), 1j * pauli(3)], REAL_ANTIHERMITIAN)
        assert closure(small).achieved_dim <= closure(large).achieved_dim

    def test_deterministic(self):
        mats = universal_augmentation(clifford_generators(2))
        first = closure(prepare_generators(mats, REAL_ANTIHERMITIAN))
        second = closure(prepare_generators(mats, REAL_ANTIHERMITIAN))
        assert first.achieved_dim == second.achieved_dim
        assert first.rounds == second.rounds
        for a, b in zip(first.basis, second.basis):
            assert max_abs(a - b) <= 1e-13

    def test_basis_orthonormal_traceless(self):
        gen = prepare_generators(qudit_universal_set(3, 1), REAL_ANTIHERMITIAN)
        result = closure(gen)
        for i, a in enumerate(result.basis):
            assert abs(np.trace(a)) <= 1e-11
            assert max_abs(a + dagger(a)) <= 1e-11
            for j, b in enumerate(result.basis):
                value = hs_inner(a, b, normalizer=1.0)
                assert abs(value - (1.0 if i == j else 0.0)) <= 10 * result.tolerance_used

    @pytest.mark.parametrize("engine", [closure, _dense_closure])
    def test_tolerance_is_keyword_only(self, engine):
        gen = prepare_generators(qudit_universal_set(3, 1), REAL_ANTIHERMITIAN)
        with pytest.raises(TypeError):
            engine(gen, 1e-9)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            prepare_generators([], REAL_ANTIHERMITIAN)

    def test_real_mode_validates_antihermitian(self):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            GeneratorSet("bad", 2, (pauli(1),), REAL_ANTIHERMITIAN)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            GeneratorSet("bad", 2, (1j * pauli(1),), "spooky")

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # Unchecked, NaN reported 4 of 8 and inf 0 of 8 for this su(3) set.
        gen = prepare_generators(qudit_universal_set(3, 1), REAL_ANTIHERMITIAN)
        with pytest.raises(ValueError, match="finite and positive"):
            closure(gen, tol=tol)
        with pytest.raises(ValueError, match="finite and positive"):
            is_universal(qudit_universal_set(3, 1), 3, 1, tol=tol)

    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_tolerance_below_machine_epsilon_is_refused(self, tol):
        # Accepted, rounding dust of these three inputs passed for a fourth
        # direction of su(2): 4 of target 3 and universal: false.
        rng = np.random.default_rng(51)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        gen = prepare_generators(mats, REAL_ANTIHERMITIAN)
        for engine in (closure, _dense_closure):
            with pytest.raises(ValueError, match="machine epsilon"):
                engine(gen, tol=tol)
        result = closure(gen, tol=np.finfo(float).eps)
        assert (result.achieved_dim, result.target_dim, result.universal) == (3, 3, True)


class TestQuditUniversalDimensions:
    @pytest.mark.parametrize("n,dim", [(1, 3), (2, 10), (3, 21), (4, 36)])
    def test_qubit_sets_span_odd_orthogonal_algebra(self, n, dim):
        # at l=2 the set closes on so(2n+1), dimension n(2n+1), not su(2^n)
        gen = prepare_generators(qudit_universal_set(2, n), REAL_ANTIHERMITIAN)
        result = closure(gen)
        assert result.achieved_dim == dim == n * (2 * n + 1)
        assert result.universal == (n == 1)

    @pytest.mark.parametrize("n,dim", [(1, 3), (2, 10), (3, 21), (4, 36)])
    def test_generalized_qubit_family_is_the_clifford_family(self, n, dim):
        # The tau phase nu leaves about 5e-16 in m - m* for the Hermitian
        # tau2; counted as a seed direction it used to give 15, 63 and 255.
        gen = prepare_generators(named_generator_set("generalized", 2, n), REAL_ANTIHERMITIAN)
        for engine in (closure, _dense_closure):
            assert engine(gen).achieved_dim == dim == n * (2 * n + 1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["closure", "--set", "generalized", "--dim", "2", "--sites", str(n)])
        assert f"achieved-dim: {dim}\n" in out.getvalue()

    @pytest.mark.parametrize(
        "l,n", [(3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (3, 2), (4, 2), (5, 2)]
    )
    def test_higher_orders_are_universal(self, l, n):
        gen = prepare_generators(qudit_universal_set(l, n), REAL_ANTIHERMITIAN)
        result = closure(gen)
        assert (result.achieved_dim, result.target_dim) == (l ** (2 * n) - 1,) * 2
        assert result.universal


class TestIsUniversal:
    def test_biproducts_three_sites_fall_short(self):
        # 15 biproduct directions against the 63-dimensional target
        mats = biproducts(clifford_generators(3))
        assert is_universal(mats, 2, 3) is False

    def test_pauli_triple(self):
        assert is_universal([1j * pauli(k) for k in (1, 2, 3)], 2, 1) is True

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="expected l"):
            is_universal([np.eye(4)], 2, 1)

    @pytest.mark.parametrize("mats,l,n,message", [
        ([np.eye(4), shift_matrix(4)], 2, 3, r"^matrix 0 has dimension 4, expected l\^n = 8$"),
        # the error prepare_generators raises; is_universal checks nothing before it
        ([pauli(1), shift_matrix(3)], 2, 1, r"^matrix 1 has dimension 3, expected 2$"),
    ], ids=["uniform", "mixed"])
    def test_dimension_messages(self, mats, l, n, message):
        with pytest.raises(ValueError, match=message):
            is_universal(mats, l, n)


class TestGateFromGenerator:
    def test_half_sigma1_quarter_turn(self):
        first, second = gate_from_generator(pauli(1) / 2, np.pi / 2)
        assert max_abs(first - 1j * pauli(1)) <= 1e-14
        assert max_abs(second - np.eye(2)) <= 1e-15

    def test_zero_time_is_identity(self):
        first, second = gate_from_generator(shift_matrix(5), 0.0)
        assert max_abs(first - np.eye(5)) == 0
        assert max_abs(second - np.eye(5)) == 0

    def test_shift_generator_gives_unitaries(self):
        first, second = gate_from_generator(shift_matrix(3), 0.3)
        for gate in (first, second):
            assert max_abs(gate @ dagger(gate) - np.eye(3)) <= 1e-12

    def test_unitary_for_random_generators(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            tau = float(rng.uniform(-1.5, 1.5))
            for gate in gate_from_generator(m, tau):
                assert max_abs(gate @ dagger(gate) - np.eye(d)) <= 1e-11

    def test_rejects_non_finite_tau(self):
        with pytest.raises(ValueError):
            gate_from_generator(pauli(1), float("inf"))

    def test_second_gate_matches_direct_exponential(self):
        m = shift_matrix(4)
        _, second = gate_from_generator(m, 0.7)
        assert max_abs(second - matrix_exp(0.7 * (m - dagger(m)))) <= 1e-13
