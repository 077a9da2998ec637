"""Generator families: anticommuting qubit arrays, their order-l analogues,
per-site canonical pairs, and the derived gate sets."""

import json
from functools import reduce

import numpy as np
import pytest

from generate_digests import DIGESTS_PATH, digest_case, generate_cases

from quditkit import (
    GeneratorFamily,
    NoMatchingPowerError,
    RootOfUnity,
    biproducts,
    canonical_generators,
    clifford_generators,
    clock_matrix,
    commutation_matrix,
    dagger,
    generalized_generators,
    max_abs,
    named_generator_set,
    pauli,
    qudit_universal_set,
    shift_matrix,
    tau_matrices,
    universal_augmentation,
)


def kron(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


class TestPauli:
    def test_not_action(self):
        ket0 = np.array([1, 0], dtype=complex)
        ket1 = np.array([0, 1], dtype=complex)
        assert max_abs(pauli(1) @ ket0 - ket1) == 0
        assert max_abs(pauli(1) @ ket1 - ket0) == 0

    def test_diagonal_form(self):
        assert np.array_equal(pauli(3), np.diag([1.0 + 0j, -1.0 + 0j]))

    def test_index_zero_is_identity(self):
        assert np.array_equal(pauli(0), np.eye(2))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            pauli(4)
        with pytest.raises(ValueError):
            pauli(-1)


class TestCliffordGenerators:
    def test_single_site_pair(self):
        fam = clifford_generators(1)
        assert max_abs(fam.matrices[0] - pauli(1)) == 0
        assert max_abs(fam.matrices[1] - pauli(2)) == 0

    def test_two_site_tensor_pattern(self):
        fam = clifford_generators(2)
        assert max_abs(fam.matrices[0] - kron(pauli(0), pauli(1))) == 0
        assert max_abs(fam.matrices[1] - kron(pauli(0), pauli(2))) == 0
        assert max_abs(fam.matrices[2] - kron(pauli(1), pauli(3))) == 0
        assert max_abs(fam.matrices[3] - kron(pauli(2), pauli(3))) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_anticommutation(self, n):
        fam = clifford_generators(n)
        eye = np.eye(fam.dim)
        for i, ei in enumerate(fam.matrices):
            for j, ej in enumerate(fam.matrices):
                expected = 2 * eye if i == j else 0 * eye
                assert max_abs(ei @ ej + ej @ ei - expected) <= 1e-13

    def test_involutions(self):
        fam = clifford_generators(3)
        for e in fam.matrices:
            assert max_abs(e @ e - np.eye(8)) <= 1e-13

    def test_rejects_bad_site_count(self):
        with pytest.raises(ValueError):
            clifford_generators(0)


class TestGeneralizedGenerators:
    @pytest.mark.parametrize("n", [1, 2])
    def test_reduces_to_clifford_at_l2(self, n):
        gen = generalized_generators(2, n)
        cl = clifford_generators(n)
        for f, e in zip(gen.matrices, cl.matrices):
            assert max_abs(f - e) <= 1e-14
        assert np.array_equal(commutation_matrix(gen), commutation_matrix(cl))

    def test_single_site_is_tau_pair(self):
        fam = generalized_generators(3, 1)
        t1, t2, _ = tau_matrices(3)
        assert max_abs(fam.matrices[0] - t1) == 0
        assert max_abs(fam.matrices[1] - t2) == 0

    @pytest.mark.parametrize("l,n", [(2, 2), (3, 2), (4, 2), (3, 3)])
    def test_ordered_zeta_commutation(self, l, n):
        fam = generalized_generators(l, n)
        zeta = RootOfUnity(l).zeta
        f = fam.matrices
        for i in range(len(f)):
            for j in range(i + 1, len(f)):
                assert max_abs(f[i] @ f[j] - zeta * f[j] @ f[i]) <= 1e-12

    @pytest.mark.parametrize("l,n", [(3, 2), (5, 1), (4, 2)])
    def test_orders(self, l, n):
        fam = generalized_generators(l, n)
        eye = np.eye(fam.dim)
        for f in fam.matrices:
            assert max_abs(np.linalg.matrix_power(f, l) - eye) <= 1e-11


class TestCanonicalGenerators:
    def test_single_site_is_weyl_pair(self):
        fam = canonical_generators(3, 1)
        assert max_abs(fam.matrices[0] - shift_matrix(3)) == 0
        assert max_abs(fam.matrices[1] - clock_matrix(3)) == 0
        expected = np.array([[0, 1], [-1, 0]])
        assert np.array_equal(commutation_matrix(fam), expected)

    def test_site_two_placement(self):
        fam = canonical_generators(2, 2)
        # third generator (index 2) acts on site 2: identity on the left slot
        assert max_abs(fam.matrices[2] - kron(pauli(0), shift_matrix(2))) == 0
        assert max_abs(fam.matrices[0] - kron(shift_matrix(2), pauli(0))) == 0

    def test_same_site_zeta_commutes_cross_site_commutes(self):
        fam = canonical_generators(3, 2)
        zeta = RootOfUnity(3).zeta
        g = fam.matrices
        assert max_abs(g[0] @ g[1] - zeta * g[1] @ g[0]) <= 1e-13
        assert max_abs(g[0] @ g[2] - g[2] @ g[0]) <= 1e-13
        assert max_abs(g[1] @ g[3] - g[3] @ g[1]) <= 1e-13


class TestCommutationMatrix:
    def test_generalized_form(self):
        table = commutation_matrix(generalized_generators(3, 2))
        expected = np.array(
            [[0, 1, 1, 1], [-1, 0, 1, 1], [-1, -1, 0, 1], [-1, -1, -1, 0]]
        )
        assert np.array_equal(table, expected)

    def test_canonical_form(self):
        table = commutation_matrix(canonical_generators(3, 2))
        block = np.array([[0, 1], [-1, 0]])
        assert np.array_equal(table, np.kron(np.eye(2, dtype=int), block))

    def test_commuting_family_gives_zero(self):
        v = clock_matrix(3)
        fam = GeneratorFamily(3, 1, "canonical", (v, v @ v))
        assert np.array_equal(commutation_matrix(fam), np.zeros((2, 2), dtype=int))

    def test_antisymmetry_zero_diagonal(self):
        for fam in (generalized_generators(4, 2), canonical_generators(2, 3)):
            table = commutation_matrix(fam)
            assert np.array_equal(table, -table.T)
            assert not table.diagonal().any()

    def test_rejects_non_power_commuting_pair(self):
        u = shift_matrix(3)
        skew = np.diag([1.0, 1.0, RootOfUnity(3).zeta])  # order 3 but uneven phases
        fam = GeneratorFamily(3, 1, "canonical", (u, skew))
        with pytest.raises(NoMatchingPowerError):
            commutation_matrix(fam)


class TestBiproducts:
    def test_single_site_value(self):
        products = biproducts(clifford_generators(1))
        assert len(products) == 1
        assert max_abs(products[0] - 1j * pauli(3)) <= 1e-15

    def test_count_matches_pair_formula(self):
        for n in (1, 2, 3):
            assert len(biproducts(clifford_generators(n))) == n * (2 * n - 1)

    def test_antihermitian(self):
        for p in biproducts(clifford_generators(2)):
            assert max_abs(p + dagger(p)) <= 1e-13

    def test_equals_half_commutator(self):
        fam = clifford_generators(2)
        e = fam.matrices
        products = biproducts(fam)
        idx = 0
        for j in range(4):
            for k in range(j + 1, 4):
                half = (e[j] @ e[k] - e[k] @ e[j]) / 2
                assert max_abs(products[idx] - half) <= 1e-13
                idx += 1

    def test_requires_clifford_kind(self):
        with pytest.raises(ValueError, match="clifford"):
            biproducts(generalized_generators(3, 1))


class TestUniversalAugmentation:
    def test_count_and_members(self):
        fam = clifford_generators(2)
        extra = universal_augmentation(fam)
        assert len(extra) == 5
        assert max_abs(extra[3] - kron(pauli(0), pauli(1))) == 0

    def test_triple_product_is_single_site_up_to_phase(self):
        extra = universal_augmentation(clifford_generators(2))
        # e0 e1 e2 = (I x s1)(I x s2)(s1 x s3) = s1 x (s1 s2 s3) = i (s1 x I)
        assert max_abs(extra[4] - 1j * kron(pauli(1), pauli(0))) <= 1e-15

    def test_requires_two_sites(self):
        with pytest.raises(ValueError):
            universal_augmentation(clifford_generators(1))


class TestQuditUniversalSet:
    def test_single_site_members(self):
        t1, t2, _ = tau_matrices(3)
        gates = qudit_universal_set(3, 1)
        assert len(gates) == 2
        assert max_abs(gates[0] - t1) == 0
        assert max_abs(gates[1] - t1 @ dagger(t2)) <= 1e-15

    def test_count(self):
        assert len(qudit_universal_set(2, 2)) == 4
        assert len(qudit_universal_set(3, 2)) == 4

    @pytest.mark.parametrize("l,n", [(3, 2), (2, 3)])
    def test_gates_touch_at_most_two_sites(self, l, n):
        for gate in qudit_universal_set(l, n):
            assert _support_size(gate, l, n) <= 2


def _support_size(matrix, l, n):
    """Number of sites where the operator differs from the identity factor."""
    t = matrix.reshape((l,) * (2 * n))
    support = 0
    for site in range(n):
        m = np.moveaxis(t, (site, n + site), (0, 1))
        m = m.reshape(l, l, -1)
        identity_like = True
        diag = m[0, 0]
        for i in range(l):
            for j in range(l):
                if i == j:
                    if max_abs(m[i, j] - diag) > 1e-12:
                        identity_like = False
                elif max_abs(m[i, j]) > 1e-12:
                    identity_like = False
        if not identity_like:
            support += 1
    return support


class TestRegistry:
    def test_known_names(self):
        assert len(named_generator_set("clifford", 2, 2)) == 4
        assert len(named_generator_set("generalized", 3, 2)) == 4
        assert len(named_generator_set("canonical", 3, 2)) == 4
        assert len(named_generator_set("biproducts", 2, 2)) == 6
        assert len(named_generator_set("clifford-universal", 2, 2)) == 5
        assert len(named_generator_set("qudit-universal", 3, 2)) == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown generator set"):
            named_generator_set("nonsense", 2, 1)

    def test_qubit_only_sets_reject_other_orders(self):
        with pytest.raises(ValueError, match="l=2 only"):
            named_generator_set("biproducts", 3, 2)


class TestBuildersMatchKron:
    """The builders' broadcast products are the products ``np.kron`` makes, byte for byte."""

    @staticmethod
    def assert_bytes(family, factor_lists):
        ref = [reduce(np.kron, factors) for factors in factor_lists]
        assert len(family.matrices) == len(ref)
        for got, want in zip(family.matrices, ref):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # signed zeros too

    @staticmethod
    def walking(n, eye, first, second, tail):
        for k in range(n):
            for active in (first, second):
                yield [eye] * (n - k - 1) + [active] + [tail] * k

    @pytest.mark.parametrize("n", range(1, 7))
    def test_clifford(self, n):
        p = [pauli(i) for i in range(4)]
        self.assert_bytes(clifford_generators(n), self.walking(n, p[0], p[1], p[2], p[3]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("l", range(2, 8))
    def test_generalized(self, l, n):
        t1, t2, t3 = tau_matrices(l)
        self.assert_bytes(generalized_generators(l, n), self.walking(n, np.eye(l, dtype=complex), t1, t2, t3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("l", range(2, 8))
    def test_canonical(self, l, n):
        sites = [(np.eye(l**site, dtype=complex), np.eye(l ** (n - site - 1), dtype=complex)) for site in range(n)]
        self.assert_bytes(canonical_generators(l, n), (
            [left, m, right] for left, right in sites for m in (shift_matrix(l), clock_matrix(l))
        ))


GENERATE_DIGESTS = json.loads(DIGESTS_PATH.read_text())


def test_generate_digest_grid_is_the_recorded_one():
    assert sorted(" ".join(argv) for argv in generate_cases()) == sorted(GENERATE_DIGESTS["cases"])


@pytest.mark.parametrize("case", sorted(GENERATE_DIGESTS["cases"]))
def test_generate_writes_the_recorded_bytes(case):
    # recorded before the builders stopped calling np.kron; see generate_digests.py
    assert digest_case(case.split()) == GENERATE_DIGESTS["cases"][case]


class TestFamilyValidation:
    def test_wrong_order_rejected(self):
        u = shift_matrix(3)
        with pytest.raises(ValueError, match="order"):
            GeneratorFamily(2, 1, "canonical", (u[:2, :2], u[:2, :2]))

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="expected 4 generators"):
            GeneratorFamily(2, 2, "clifford", tuple(clifford_generators(1).matrices))

    @pytest.fixture
    def parts(self):
        good = clifford_generators(2).matrices
        return good, 2 * good[1], good[2][:2, :2]

    def test_first_failing_generator_raises(self, parts):
        good, unordered, misshapen = parts
        with pytest.raises(ValueError, match=r"^generator 1 does not have order 2$"):
            GeneratorFamily(2, 2, "clifford", (good[0], unordered, unordered, good[3]))
        with pytest.raises(ValueError, match=r"^generator 1 does not have order 2$"):
            GeneratorFamily(2, 2, "clifford", (good[0], unordered, misshapen, good[3]))
        with pytest.raises(ValueError, match=r"^generator 1 has shape \(2, 2\), expected \(4, 4\)$"):
            GeneratorFamily(2, 2, "clifford", (good[0], misshapen, unordered, good[3]))

    def test_shape_is_checked_before_order(self, parts):
        good, _, misshapen = parts
        with pytest.raises(ValueError, match=r"^generator 0 has shape \(2, 2\), expected \(4, 4\)$"):
            GeneratorFamily(2, 2, "clifford", (2 * misshapen, good[1], good[2], good[3]))

    def test_clifford_kind_requires_l2(self):
        taus = generalized_generators(3, 1).matrices
        with pytest.raises(ValueError, match="l == 2"):
            GeneratorFamily(3, 1, "clifford", taus)
