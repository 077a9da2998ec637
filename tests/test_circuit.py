"""State construction, selective gate contraction against the embedded-matrix
reference, Fourier matrix, and classical-function embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quditkit import (
    GateSpec,
    QuditState,
    RootOfUnity,
    apply_full,
    apply_kgate,
    basis_state,
    clock_matrix,
    cyclic_shift_gate,
    embed_kgate,
    max_abs,
    momentum_basis,
    pauli,
    perm_from_function,
    qft_matrix,
    reversible_embedding,
    shift_matrix,
)


def random_state(rng, l, n):
    amp = rng.standard_normal(l**n) + 1j * rng.standard_normal(l**n)
    return QuditState(l, n, amp)


def random_unitary(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestBasisState:
    def test_two_qubits_binary_index(self):
        state = basis_state(2, 2, [0, 1])
        assert state.amplitudes[1] == 1
        assert np.count_nonzero(state.amplitudes) == 1

    def test_ternary_big_endian_index(self):
        state = basis_state(3, 2, [2, 1])
        assert state.amplitudes[7] == 1  # 2*3 + 1

    def test_single_site(self):
        assert np.array_equal(basis_state(2, 1, [1]).amplitudes, [0, 1])

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_state(2, 2, [0, 2])

    def test_wrong_digit_count(self):
        with pytest.raises(ValueError, match="digits"):
            basis_state(2, 2, [0])


class TestApplyFull:
    def test_identity(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 3, 2)
        out = apply_full(np.eye(9), state)
        assert max_abs(out.amplitudes - state.amplitudes) == 0

    def test_not_gate(self):
        out = apply_full(pauli(1), basis_state(2, 1, [0]))
        assert np.array_equal(out.amplitudes, basis_state(2, 1, [1]).amplitudes)

    def test_increment_wraps_around(self):
        out = apply_full(cyclic_shift_gate(3), basis_state(3, 1, [2]))
        assert np.array_equal(out.amplitudes, basis_state(3, 1, [0]).amplitudes)

    def test_algebra_shift_lowers_index(self):
        # the algebra-side pair satisfies U V = zeta V U, which fixes its
        # column convention: it decrements computational indices
        out = apply_full(shift_matrix(3), basis_state(3, 1, [2]))
        assert np.array_equal(out.amplitudes, basis_state(3, 1, [1]).amplitudes)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            apply_full(np.eye(3), basis_state(2, 2, [0, 0]))


class TestApplyKGate:
    def test_not_on_second_site(self):
        gate = GateSpec(2, pauli(1), (2,))
        out = apply_kgate(gate, basis_state(2, 2, [0, 0]))
        assert np.array_equal(out.amplitudes, basis_state(2, 2, [0, 1]).amplitudes)

    def test_identity_gate_any_sites(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 3, 3)
        gate = GateSpec(3, np.eye(9), (3, 1))
        out = apply_kgate(gate, state)
        assert max_abs(out.amplitudes - state.amplitudes) <= 1e-15

    @pytest.mark.parametrize("sites", [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (3, 1), (1, 2, 3)])
    def test_matches_embedded_matrix(self, sites):
        rng = np.random.default_rng(sum(10**i * s for i, s in enumerate(sites)))
        l, n = 3, 3
        k = len(sites)
        gate = GateSpec(l, rng.standard_normal((l**k, l**k)) + 1j * rng.standard_normal((l**k, l**k)), sites)
        state = random_state(rng, l, n)
        direct = apply_kgate(gate, state)
        embedded = apply_full(embed_kgate(gate, n), state)
        assert max_abs(direct.amplitudes - embedded.amplitudes) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_embedded_matrix_on_random_registers(self, data):
        l = data.draw(st.integers(2, 4), label="l")
        n = data.draw(st.integers(1, {2: 6, 3: 4, 4: 3}[l]), label="n")
        sites = data.draw(st.permutations(range(1, n + 1)), label="site order")
        sites = sites[: data.draw(st.integers(1, n), label="arity")]
        entries = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
        k = len(sites)
        gate = GateSpec(l, data.draw(arrays(complex, (l**k, l**k), elements=entries)), sites)
        state = QuditState(l, n, data.draw(arrays(complex, l**n, elements=entries)))
        direct = apply_kgate(gate, state)
        embedded = apply_full(embed_kgate(gate, n), state)
        scale = max(1.0, max_abs(gate.matrix)) * max(1.0, max_abs(state.amplitudes))
        assert max_abs(direct.amplitudes - embedded.amplitudes) <= 1e-13 * l**k * scale

    def test_site_out_of_range(self):
        gate = GateSpec(2, pauli(1), (3,))
        with pytest.raises(ValueError, match="out of range"):
            apply_kgate(gate, basis_state(2, 2, [0, 0]))

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            GateSpec(2, np.eye(4), (1, 1))

    def test_arity_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            GateSpec(2, np.eye(4), (1,))

    def test_level_mismatch(self):
        gate = GateSpec(3, np.eye(3), (1,))
        with pytest.raises(ValueError, match="l="):
            apply_kgate(gate, basis_state(2, 2, [0, 0]))

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            state = random_state(rng, 2, 3)
            gate = GateSpec(2, random_unitary(rng, 4), (1, 3))
            out = apply_kgate(gate, state)
            assert abs(out.norm() - state.norm()) <= 1e-12


class TestEmbedKGate:
    def test_first_site_placement(self):
        gate = GateSpec(2, pauli(1), (1,))
        assert max_abs(embed_kgate(gate, 2) - np.kron(pauli(1), np.eye(2))) == 0

    def test_second_site_placement(self):
        gate = GateSpec(2, pauli(1), (2,))
        assert max_abs(embed_kgate(gate, 2) - np.kron(np.eye(2), pauli(1))) == 0

    def test_full_arity_natural_order_unchanged(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        gate = GateSpec(2, m, (1, 2, 3))
        assert max_abs(embed_kgate(gate, 3) - m) == 0

    def test_reversed_site_order_swaps_gate_indices(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[2 * i + j, 2 * j + i] = 1
        forward = embed_kgate(GateSpec(2, m, (1, 2)), 2)
        backward = embed_kgate(GateSpec(2, swap @ m @ swap, (2, 1)), 2)
        assert max_abs(forward - backward) <= 1e-14


class TestFourier:
    def test_l2_unnormalized_literal(self):
        expected = np.array([[1, 1], [1, -1]], dtype=complex)
        assert max_abs(qft_matrix(2) - expected) <= 1e-15

    @pytest.mark.parametrize("l", [2, 3, 5, 8, 16, 32])
    def test_normalized_unitarity(self, l):
        f = qft_matrix(l, normalized=True)
        assert max_abs(f @ f.conj().T - np.eye(l)) <= 1e-12

    def test_columns_are_momentum_vectors(self):
        for l in (2, 3, 5):
            f = qft_matrix(l)
            vectors = momentum_basis(l)
            for k in range(l):
                assert max_abs(f[:, k] - vectors[k].amplitudes) == 0

    def test_applying_to_ground_state_gives_flat_amplitudes(self):
        out = apply_full(qft_matrix(3), basis_state(3, 1, [0]))
        assert max_abs(out.amplitudes - np.ones(3)) <= 1e-15


class TestMomentumBasis:
    def test_l2_second_vector(self):
        assert max_abs(momentum_basis(2)[1].amplitudes - np.array([1, -1])) <= 1e-15

    @pytest.mark.parametrize("l", [2, 3, 5, 8])
    def test_eigenvectors_of_both_shifts(self, l):
        root = RootOfUnity(l)
        u = shift_matrix(l)
        increment = cyclic_shift_gate(l)
        for k, vec in enumerate(momentum_basis(l)):
            amp = vec.amplitudes
            assert max_abs(u @ amp - root.zeta_power(k) * amp) <= 1e-13
            assert max_abs(increment @ amp - root.zeta_power(-k) * amp) <= 1e-13

    @pytest.mark.parametrize("l", list(range(2, 17)))
    def test_computational_eigenrelations(self, l):
        root = RootOfUnity(l)
        v = clock_matrix(l)
        increment = cyclic_shift_gate(l)
        for k in range(l):
            ket = basis_state(l, 1, [k]).amplitudes
            assert max_abs(v @ ket - root.zeta_power(k) * ket) <= 1e-14
            expected = basis_state(l, 1, [(k + 1) % l]).amplitudes
            assert max_abs(increment @ ket - expected) <= 1e-14


class TestFunctionMatrices:
    def test_not_function(self):
        assert max_abs(perm_from_function([1, 0], 2) - pauli(1)) == 0

    def test_identity_function(self):
        assert max_abs(perm_from_function([0, 1, 2], 3) - np.eye(3)) == 0

    def test_constant_function_not_unitary(self):
        m = perm_from_function([0, 0], 2)
        assert np.array_equal(m.real, [[1, 1], [0, 0]])
        assert max_abs(m @ m.conj().T - np.eye(2)) > 0.5

    def test_value_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            perm_from_function([0, 2], 2)

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="values"):
            perm_from_function([0], 2)


class TestReversibleEmbedding:
    def test_identity_function_gives_controlled_not(self):
        got = reversible_embedding([0, 1], 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = 1  # |00>, |01> fixed
        expected[3, 2] = expected[2, 3] = 1  # |10> <-> |11>
        assert np.array_equal(got.real, expected)

    def test_constant_zero_is_identity(self):
        assert np.array_equal(reversible_embedding([0, 0, 0], 3), np.eye(9))

    def test_always_permutation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            l = int(rng.integers(2, 6))
            values = [int(v) for v in rng.integers(0, l, l)]  # may be non-injective
            m = reversible_embedding(values, l)
            assert np.array_equal(np.sort(np.argmax(m.real, axis=0)), np.arange(l * l))
            assert max_abs(m @ m.conj().T - np.eye(l * l)) == 0

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_computes_function_on_cleared_register(self, l):
        rng = np.random.default_rng(100 + l)
        values = [int(v) for v in rng.integers(0, l, l)]
        m = reversible_embedding(values, l)
        for x in range(l):
            out = apply_full(m, basis_state(l, 2, [x, 0]))
            expected = basis_state(l, 2, [x, values[x]])
            assert max_abs(out.amplitudes - expected.amplitudes) == 0


class TestStateValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            QuditState(2, 2, np.ones(3))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            QuditState(2, 1, np.array([np.inf, 0]))

    def test_norm_tracked_not_forced(self):
        state = QuditState(2, 1, np.array([3.0, 4.0]))
        assert state.norm() == pytest.approx(5.0)
