"""Generator families: anticommuting qubit arrays, their order-l analogues,
per-site canonical pairs, and the derived gate sets."""

import json
import warnings
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generate_digests import DIGESTS_PATH, digest_case, generate_cases
from weyl_reference import reference_term

from quditkit import clifford as clifford_module
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

    # the builders leave the site count to GeneratorFamily, which checks it once
    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "build",
        [clifford_generators, partial(generalized_generators, 3), partial(canonical_generators, 3)],
        ids=["clifford", "generalized", "canonical"],
    )
    def test_rejects_bad_site_count(self, build, n):
        with pytest.raises(ValueError, match=rf"^need l >= 2 and n >= 1, got l=\d+, n={n}$"):
            build(n)

    def test_single_site_family_owns_its_matrices(self):
        # at n=1 each generator is one factor, which used to be the shared
        # Pauli table itself: writing into it changed every later family
        clifford_generators(1).matrices[0][0, 0] = 7
        assert np.array_equal(clifford_generators(1).matrices[0], pauli(1))


class TestGeneralizedGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reduces_to_clifford_at_l2(self, n):
        gen = generalized_generators(2, n)
        cl = clifford_generators(n)
        for f, e in zip(gen.matrices, cl.matrices):
            assert f.tobytes() == e.tobytes()
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


def reference_commutation_matrix(fam):
    """The exponent table found by trying every power of zeta, one dense
    comparison each: the search ``commutation_matrix`` made before it read
    the power from one inner product."""
    size = len(fam.matrices)
    root = RootOfUnity(fam.l)
    table = np.zeros((size, size), dtype=int)
    for i in range(size):
        for j in range(i + 1, size):
            gij = fam.matrices[i] @ fam.matrices[j]
            gji = fam.matrices[j] @ fam.matrices[i]
            matches = [c for c in range(fam.l) if max_abs(gij - root.zeta_power(c) * gji) <= 1e-10]
            if len(matches) != 1:
                raise NoMatchingPowerError(f"generators {i} and {j}: matching powers {matches}")
            c = matches[0]
            rep = c if c <= fam.l - c else c - fam.l
            if rep not in (-1, 0, 1):
                raise ValueError(f"commutation exponent {c} of pair ({i}, {j})")
            table[i, j], table[j, i] = rep, -rep
    return table


def _uneven_phases():
    # order 3, but the clock's phases are uneven, so no power of zeta relates the products
    return GeneratorFamily(3, 1, "canonical", (shift_matrix(3), np.diag([1.0, 1.0, RootOfUnity(3).zeta])))


def _exponent_two():
    # U V^2 = zeta^2 V^2 U, and 2 has no representative in {-1, 0, +1} at l = 5
    v = clock_matrix(5)
    return GeneratorFamily(5, 1, "canonical", (shift_matrix(5), v @ v))


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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(2, 7),
        st.integers(1, 3),
        st.sampled_from([generalized_generators, canonical_generators]),
        st.data(),
    )
    def test_table_follows_the_family(self, l, n, build, data):
        fam = build(l, n)
        table = commutation_matrix(fam)

        def table_of(matrices):
            return commutation_matrix(GeneratorFamily(l, n, fam.kind, tuple(matrices)))

        # permuting the generators permutes the table; at l=2 the +1/-1 tie
        # resolves by position, so exponents are compared mod l
        perm = data.draw(st.permutations(range(2 * n)))
        permuted = table_of(fam.matrices[i] for i in perm)
        assert np.array_equal(permuted % l, table[np.ix_(perm, perm)] % l)

        # an l-th root of unity on one generator leaves every exponent alone
        k = data.draw(st.integers(0, 2 * n - 1))
        phase = RootOfUnity(l).zeta_power(data.draw(st.integers(1, l - 1)))
        assert np.array_equal(table_of(g * phase if i == k else g for i, g in enumerate(fam.matrices)), table)

        # so does conjugating every generator by one unitary
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((fam.dim,) * 2) + 1j * rng.standard_normal((fam.dim,) * 2))
        assert np.array_equal(table_of(q @ g @ q.conj().T for g in fam.matrices), table)

    def test_rejects_non_power_commuting_pair(self):
        with pytest.raises(NoMatchingPowerError, match=r"^generators 0 and 1 are not zeta-power commuting"):
            commutation_matrix(_uneven_phases())

    def test_error_names_the_failing_pair(self):
        mats = list(canonical_generators(3, 2).matrices)
        mats[3] = np.kron(np.eye(3), _uneven_phases().matrices[1])  # fails only against generator 2
        with pytest.raises(NoMatchingPowerError, match=r"^generators 2 and 3 are not zeta-power commuting"):
            commutation_matrix(GeneratorFamily(3, 2, "canonical", tuple(mats)))

    @pytest.mark.parametrize("build", [generalized_generators, canonical_generators])
    @pytest.mark.parametrize("l", range(2, 8))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_power_search(self, build, l, n):
        fam = build(l, n)
        assert np.array_equal(commutation_matrix(fam), reference_commutation_matrix(fam))

    @pytest.mark.parametrize("make", [_uneven_phases, _exponent_two])
    def test_malformed_family_raises_as_the_power_search(self, make):
        fam = make()
        with pytest.raises(ValueError) as read:
            commutation_matrix(fam)
        with pytest.raises(ValueError) as searched:
            reference_commutation_matrix(fam)
        assert read.type is searched.type

    def test_one_comparison_per_pair(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(1)
            return max_abs(a)

        monkeypatch.setattr(clifford_module, "max_abs", counted)
        for fam in (generalized_generators(5, 2), canonical_generators(3, 3), clifford_generators(2)):
            calls.clear()
            commutation_matrix(fam)
            size = len(fam.matrices)
            assert len(calls) == size * (size - 1) // 2


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

    @pytest.mark.parametrize("l, n", [(2, 32), (3, 20)])
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(partial(named_generator_set, "qudit-universal"), id="named-qudit-universal"),
            pytest.param(partial(named_generator_set, "canonical"), id="named-canonical"),
            qudit_universal_set,
            generalized_generators,
            canonical_generators,
        ],
    )
    def test_codes_past_intp_raise_before_any_term(self, build, l, n):
        # a code A*d + B is below d^2 = l^(2n), which passes 2^63 here
        with pytest.raises(ValueError, match=f"got l={l}, n={n}$"):
            build(l, n)

    def test_qubit_codes_past_intp_raise_before_any_term(self):
        with pytest.raises(ValueError, match="got l=2, n=32$"):
            clifford_generators(32)

    @pytest.mark.parametrize("l, n", [(2, 31), (3, 19)])
    def test_codes_just_below_intp_build(self, l, n):
        terms = named_generator_set("qudit-universal", l, n)
        assert len(terms) == 2 * n
        assert 0 < terms.codes.min() and terms.codes.max() < l ** (2 * n)


class TestBuildersMatchTheirTerms:
    """Each family element is its term built entry by entry, byte for byte, and
    the ``np.kron`` chain of its one-site factors in value: exactly at l=2 and
    within 4e-15 beyond, where a product of table reads rounds and one read does not."""

    @staticmethod
    def assert_matches(l, family, factor_lists):
        factor_lists = list(factor_lists)
        assert len(family.matrices) == len(factor_lists)
        for got, factors in zip(family.matrices, factor_lists):
            matrices, terms = zip(*factors)  # one-site matrices and their terms (e, a, b)
            e, a, b = zip(*terms)
            assert got.tobytes() == reference_term(l, sum(e), a, b).tobytes()
            error = np.abs(got - reduce(np.kron, matrices)).max()
            assert error == 0 if l == 2 else error <= 4e-15, error

    @staticmethod
    def walking(n, eye, first, second, tail):
        for k in range(n):
            for active in (first, second):
                yield [eye] * (n - k - 1) + [active] + [tail] * k

    @staticmethod
    def tau_factors(l, matrices):
        """The identity and the tau triple as (matrix, (e, a, b)) pairs."""
        return list(zip(matrices, [(0, 0, 0), (0, 1, 0), (l - 1, 1, 1), (0, 0, 1)]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_clifford(self, n):
        p = self.tau_factors(2, [pauli(i) for i in range(4)])
        self.assert_matches(2, clifford_generators(n), self.walking(n, *p))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("l", range(2, 8))
    def test_generalized(self, l, n):
        t = self.tau_factors(l, (np.eye(l, dtype=complex),) + tau_matrices(l))
        self.assert_matches(l, generalized_generators(l, n), self.walking(n, *t))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("l", range(2, 8))
    def test_canonical(self, l, n):
        eye = (np.eye(l, dtype=complex), (0, 0, 0))
        pair = [(shift_matrix(l), (0, 1, 0)), (clock_matrix(l), (0, 0, 1))]
        self.assert_matches(l, canonical_generators(l, n), (
            [eye] * site + [m] + [eye] * (n - site - 1) for site in range(n) for m in pair
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 1])
    def test_non_finite_entries_rejected(self, bad, index):
        # a NaN order residual is not > the tolerance, and an inf entry makes
        # NaN in the power with a warning, so finiteness has its own check
        mats = [shift_matrix(3), clock_matrix(3)]
        mats[index][0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^generator {index} has non-finite entries$"):
                GeneratorFamily(3, 1, "canonical", tuple(mats))

    def test_entries_are_checked_after_shape_and_before_order(self, parts):
        good, unordered, misshapen = parts
        nan = good[2].copy()
        nan[1, 1] = np.nan
        with pytest.raises(ValueError, match=r"^generator 1 does not have order 2$"):
            GeneratorFamily(2, 2, "clifford", (good[0], unordered, nan, good[3]))
        with pytest.raises(ValueError, match=r"^generator 2 has non-finite entries$"):
            GeneratorFamily(2, 2, "clifford", (good[0], good[1], nan, misshapen))
        with pytest.raises(ValueError, match=r"^generator 1 has shape \(2, 2\), expected \(4, 4\)$"):
            GeneratorFamily(2, 2, "clifford", (good[0], misshapen, nan, good[3]))

    def test_clifford_kind_requires_l2(self):
        taus = generalized_generators(3, 1).matrices
        with pytest.raises(ValueError, match="l == 2"):
            GeneratorFamily(3, 1, "clifford", taus)
