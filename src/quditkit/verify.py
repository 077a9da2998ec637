"""Aggregated identity suites behind the ``verify`` CLI command.

Each check computes a max residual for one algebraic relation at one size
and compares it against that relation's contract tolerance (or a single
override).  Randomized checks draw from seeded generators, so a report is
a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import circuit, clifford, weyl
from .linalg import _check_tolerance, max_abs
from .vocabulary import DEFAULT_DIMS, DEFAULT_SITES

__all__ = ["VerifyCheck", "VerifyReport", "run_verification"]


@dataclass(frozen=True)
class VerifyCheck:
    """One verified relation at one size."""

    name: str
    identity: str
    params: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def headroom(self) -> float:
        """``residual / tolerance``: the check passes while this is at most 1."""
        return self.residual / self.tolerance


@dataclass(frozen=True)
class VerifyReport:
    checks: Tuple[VerifyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _unit_disc(rng: np.random.Generator, count: int) -> np.ndarray:
    radii = np.sqrt(rng.uniform(0.0, 1.0, count))
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return radii * np.exp(1j * angles)


def _random_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def run_verification(
    dims: Sequence[int] = DEFAULT_DIMS,
    sites: Sequence[int] = DEFAULT_SITES,
    tolerance: Optional[float] = None,
) -> VerifyReport:
    """Run every identity suite over the size grid and collect the results.

    ``tolerance``, when given, replaces every check's own tolerance; it must
    be finite and positive (:class:`ValueError` otherwise).
    """
    if tolerance is not None:
        tolerance = float(tolerance)
        _check_tolerance(tolerance)
    checks: List[VerifyCheck] = []

    def add(name: str, identity: str, params: str, residual: float, default_tol: float):
        tol = default_tol if tolerance is None else tolerance
        checks.append(VerifyCheck(name, identity, params, float(residual), tol))

    for l in dims:
        _single_system_checks(add, l)
    for n in sites:
        _clifford_checks(add, n)
        for l in dims:
            _family_checks(add, l, n)
            if n >= 2:
                _contraction_check(add, l, n)
    return VerifyReport(tuple(checks))


def _single_system_checks(add, l: int) -> None:
    """Single-system relations at order l."""
    # monomials[a * l + b] is W(a, b); U and V are W(1, 0) and W(0, 1)
    monomials = weyl._monomials(l, 1, np.arange(l * l))
    u, v = monomials[l], monomials[1]
    eye = np.eye(l, dtype=complex)

    add(
        "weyl-commutation",
        "U V = zeta V U",
        f"l={l}",
        weyl.weyl_commutation_residual(l),
        1e-12,
    )
    add(
        "weyl-order",
        "U^l = V^l = 1",
        f"l={l}",
        max(
            max_abs(np.linalg.matrix_power(u, l) - eye),
            max_abs(np.linalg.matrix_power(v, l) - eye),
        ),
        1e-12,
    )

    flat = monomials.reshape(l * l, l * l)
    gram = flat @ flat.conj().T
    gram /= l
    gram.flat[:: l * l + 1] -= 1  # the diagonal
    add(
        "weyl-gram",
        "Tr(W_p W_q*)/l = delta_pq",
        f"l={l}",
        max_abs(gram),
        1e-12,
    )

    rng = np.random.default_rng(1000 + l)
    roundtrip = 0.0
    for _ in range(3):
        m = _random_matrix(rng, l)
        roundtrip = max(roundtrip, max_abs(weyl.weyl_reconstruct(weyl.weyl_decompose(m, l)) - m))
    add(
        "weyl-roundtrip",
        "sum_ab f_ab W_ab recovers the decomposed matrix",
        f"l={l}",
        roundtrip,
        1e-12,
    )

    rng = np.random.default_rng(2000 + l)
    pairs = _unit_disc(rng, 10).reshape(5, 2)
    fermat = max(weyl.fermat_power_residual(l, a, b) for a, b in pairs)
    add(
        "operator-fermat",
        "(a V + b U)^l = (a^l + b^l) 1",
        f"l={l}",
        fermat,
        1e-10,
    )

    rng = np.random.default_rng(3000 + l)
    samples = [(2.0 + 0j, 1.0 + 0j)] + list(_unit_disc(rng, 6).reshape(3, 2))
    scalar = 0.0
    for a, b in samples:
        residual_odd, residual_nu = weyl.scalar_factorization_residuals(l, a, b)
        # relative to the size of the terms: a^l + b^l of the (2, 1) sample
        # grows as 2^l, and its rounding with it
        scale = max(1.0, abs(a) ** l + abs(b) ** l)
        scalar = max(scalar, residual_nu / scale)
        if residual_odd is not None:
            scalar = max(scalar, residual_odd / scale)
    add(
        "scalar-factorization",
        "a^l + b^l = prod_k (a - nu^(2k+1) b)",
        f"l={l}",
        scalar,
        1e-12,
    )

    taus = weyl.tau_matrices(l)
    zeta = weyl.RootOfUnity(l).zeta
    tau_residual = 0.0
    for i in range(3):
        tau_residual = max(
            tau_residual, max_abs(np.linalg.matrix_power(taus[i], l) - eye)
        )
        for j in range(i + 1, 3):
            tau_residual = max(
                tau_residual, max_abs(taus[i] @ taus[j] - zeta * taus[j] @ taus[i])
            )
    add(
        "tau-relations",
        "tau_i tau_j = zeta tau_j tau_i (i<j), tau_i^l = 1",
        f"l={l}",
        tau_residual,
        1e-11,
    )

    add(
        "commutator-closed-form",
        "[W(a,b), W(c,d)] = (zeta^(-bc) - zeta^(-ad)) W(a+c, b+d)",
        f"l={l}",
        _closed_form_residual(monomials, l),
        1e-12,
    )

    add(
        "circuit-eigenrelations",
        "V|k> = zeta^k |k>, N|k> = |k+1 mod l>",
        f"l={l}",
        _eigenrelations_residual(l),
        1e-14,
    )

    f = circuit.qft_matrix(l, normalized=True)
    add(
        "qft-unitarity",
        "F F* = 1 (normalized)",
        f"l={l}",
        max_abs(f @ f.conj().T - eye),
        1e-12,
    )


# Commutator entries formed at once: one shift a per block, with as many
# clock powers b as fit, at least one (l^3 entries)
_CLOSED_FORM_BLOCK = 1 << 14


def _closed_form_residual(monomials: np.ndarray, l: int) -> float:
    """Max residual of the commutator closed form over all pairs of ``monomials``.

    W(a, b) is read on its wrapped diagonal of shift a, in column order
    ``diag[a, b][j] = W(a, b)[j - a, j]`` (indices mod l); any entry off it
    counts in full.  On the diagonal of shift a + c, W(a, b) W(c, d) holds
    ``diag[a, b][j - c] * diag[c, d][j]`` and W(c, d) W(a, b) holds
    ``diag[c, d][j - a] * diag[a, b][j]``, so one FFT of their difference
    gives the commutator's coefficients: O(l^5 log l) for all pairs, each
    compared with its closed form, read from :func:`_commutator_phases`.
    """
    phases = _commutator_phases(l)
    # rolls[s, j] = j - s mod l, the row of column j on the diagonal of shift s
    rolls, columns = weyl._wrapped_diagonals(l)
    support = (np.arange(l * l)[:, None], np.repeat(rolls, l, axis=0), columns)
    diag = monomials[support].reshape(l, l, l)
    magnitudes = np.abs(monomials)
    magnitudes[support] = 0.0
    residual = float(magnitudes.max())
    per_block = max(1, _CLOSED_FORM_BLOCK // l**3)
    d = np.arange(l)
    for a in range(l):
        # [W(c, d), W(a, b)] subtracts the same two products the other way and
        # has the negated closed form, so its table is exactly the negated one
        c = slice(a, l)
        right = diag[c, :, rolls[a]]
        for b0 in range(0, l, per_block):
            b = slice(b0, b0 + per_block)
            left = diag[a, b]
            # both products, indexed [b, c, d, j]
            forward = left[:, rolls[c]][:, :, None, :] * diag[c]
            backward = right * left[:, None, None, :]
            tables = weyl._diagonal_coefficients(forward - backward, l, 1).reshape(-1, l)
            coefficients = phases[b, c, None] - phases[a]
            clocks = np.broadcast_to((d[b, None, None] + d) % l, coefficients.shape)
            tables[np.arange(len(tables)), clocks.ravel()] -= coefficients.ravel()
            residual = max(residual, max_abs(tables))
    return residual


def _commutator_phases(l: int) -> np.ndarray:
    """The (l, l) table ``zeta^(-x*y)`` from which every monomial commutator is read.

    ``[W(a, b), W(c, d)]`` is ``phases[b, c] - phases[a, d]`` times ``W(a + c, b + d)``,
    read from the root table, as :func:`weyl.weyl_commutator_coefficient` is.
    """
    x = np.arange(l)
    return weyl._nu_powers(l)[2 * (-np.outer(x, x) % l)]


def _eigenrelations_residual(l: int) -> float:
    """Max residual of ``V|k> = zeta^k |k>`` and ``N|k> = |k+1 mod l>`` over the l basis kets."""
    v, increment, root = weyl.clock_matrix(l), circuit.cyclic_shift_gate(l), weyl.RootOfUnity(l)
    eigen = 0.0
    for k in range(l):
        ket, raised = circuit.basis_state(l, 1, [k]), circuit.basis_state(l, 1, [(k + 1) % l])
        eigen = max(
            eigen,
            max_abs(circuit.apply_full(increment, ket).amplitudes - raised.amplitudes),
            max_abs(circuit.apply_full(v, ket).amplitudes - root.zeta_power(k) * ket.amplitudes),
        )
    return eigen


def _clifford_checks(add, n: int) -> None:
    fam = clifford.clifford_generators(n)
    e = fam.matrices
    eye = np.eye(fam.dim, dtype=complex)
    residual = 0.0
    for i in range(len(e)):
        for j in range(i, len(e)):  # the sum is symmetric in i and j
            expected = 2.0 * eye if i == j else 0.0 * eye
            residual = max(residual, max_abs(e[i] @ e[j] + e[j] @ e[i] - expected))
    add(
        "clifford-anticommutation",
        "e_i e_j + e_j e_i = 2 delta_ij",
        f"n={n}",
        residual,
        1e-12,
    )


def _family_checks(add, l: int, n: int) -> None:
    fam = clifford.generalized_generators(l, n)
    f = fam.matrices
    zeta = weyl.RootOfUnity(l).zeta
    eye = np.eye(fam.dim, dtype=complex)

    commutation = 0.0
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            commutation = max(commutation, max_abs(f[i] @ f[j] - zeta * f[j] @ f[i]))
    add(
        "zeta-commutation",
        "f_i f_j = zeta f_j f_i (i<j)",
        f"l={l} n={n}",
        commutation,
        1e-12,
    )

    order = max(max_abs(np.linalg.matrix_power(g, l) - eye) for g in f)
    add("generator-order", "f_i^l = 1", f"l={l} n={n}", order, 1e-11)

    rng = np.random.default_rng(4000 + 10 * l + n)
    multiterm = 0.0
    for _ in range(3):
        coeffs = _unit_disc(rng, len(f))
        combo = sum(c * g for c, g in zip(coeffs, f))
        powered = np.linalg.matrix_power(combo, l)
        multiterm = max(multiterm, max_abs(powered - np.sum(coeffs**l) * eye))
    add(
        "multiterm-fermat",
        "(sum_i a_i f_i)^l = (sum_i a_i^l) 1",
        f"l={l} n={n}",
        multiterm,
        1e-9,
    )

    generalized_table = clifford.commutation_matrix(fam)
    expected_upper = np.triu(np.ones((2 * n, 2 * n), dtype=int), k=1)
    expected_upper = expected_upper - expected_upper.T
    canonical_table = clifford.commutation_matrix(clifford.canonical_generators(l, n))
    block = np.array([[0, 1], [-1, 0]], dtype=int)
    expected_sym = np.kron(np.eye(n, dtype=int), block)
    mismatch = max(
        np.max(np.abs(generalized_table - expected_upper)),
        np.max(np.abs(canonical_table - expected_sym)),
    )
    add(
        "commutation-matrix-forms",
        "c_ij: all +1 above the diagonal / symplectic blocks",
        f"l={l} n={n}",
        float(mismatch),
        0.5,
    )


def _contraction_check(add, l: int, n: int) -> None:
    rng = np.random.default_rng(5000 + 10 * l + n)
    residual = 0.0
    for _ in range(3):
        k = int(rng.integers(1, min(n, 2) + 1))
        site_list = tuple(int(s) + 1 for s in rng.permutation(n)[:k])
        gate = circuit.GateSpec(l, _random_matrix(rng, l**k), site_list)
        amplitudes = rng.standard_normal(l**n) + 1j * rng.standard_normal(l**n)
        state = circuit.QuditState(l, n, amplitudes)
        direct = circuit.apply_kgate(gate, state)
        embedded = circuit.apply_full(circuit.embed_kgate(gate, n), state)
        residual = max(residual, max_abs(direct.amplitudes - embedded.amplitudes))
    add(
        "kgate-contraction",
        "indexed contraction = embedded full matrix",
        f"l={l} n={n}",
        residual,
        1e-12,
    )
