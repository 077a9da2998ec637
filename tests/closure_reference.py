"""Sequential closure engine kept as the slow reference for the batched one.

``reference_closure`` is the candidate-by-candidate sweep and
``reference_extend`` the element-by-element modified Gram-Schmidt step it
was built on.  Tests compare :func:`quditkit.closure` and
:func:`quditkit.orthonormal_extend` against them; nothing in the package
imports this module.

``_first_reached`` and ``_monomial_basis`` are the monomial engine's
support search, which Fourier transforms every wrapped diagonal, and its
eager basis builder, which forms the whole (k, d, d) basis at once; they
are the references for the search that skips empty diagonals and for the
lazy basis.  ``reference_prepare`` and ``reference_validate`` are
:func:`quditkit.prepare_generators` and the :class:`quditkit.GeneratorSet`
checks matrix by matrix, the references for the stacked ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from quditkit import (
    COMPLEX_TRACELESS,
    REAL_ANTIHERMITIAN,
    ClosureResult,
    GeneratorSet,
    NonConvergenceError,
    hermitian_split,
    traceless_project,
)
from quditkit.linalg import ExtendResult, as_matrix, dagger, hs_inner, hs_norm, max_abs
from quditkit.universality import _ANTIHERMITIAN_TOL, _SUPPORT_ROWS, _negated
from quditkit.weyl import _decompose, _monomial_entries


def reference_extend(
    basis: Sequence[np.ndarray],
    candidate,
    tol: float = 1e-9,
    normalizer: Optional[float] = None,
) -> ExtendResult:
    """Modified Gram-Schmidt against each basis element in turn, twice."""
    m = as_matrix(candidate, "candidate")
    norm0 = hs_norm(m, normalizer)
    if norm0 == 0.0:
        return ExtendResult(False, 0.0, None)
    residual = m.astype(complex, copy=True)
    for _ in range(2):
        for b in basis:
            residual -= hs_inner(residual, b, normalizer) * b
    rnorm = hs_norm(residual, normalizer)
    if rnorm <= tol * norm0:
        return ExtendResult(False, rnorm, None)
    return ExtendResult(True, rnorm, residual / rnorm)


def reference_closure(
    gen_set: GeneratorSet,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> ClosureResult:
    """Extend the basis by every commutator of each frontier element, one at a time."""
    if not gen_set.matrices:
        raise ValueError("generator set is empty")
    d = gen_set.dim
    target = d * d - 1
    if max_rounds is None:
        max_rounds = target + 2
    basis: List[np.ndarray] = []
    for m in gen_set.matrices:
        res = reference_extend(basis, m, tol=tol, normalizer=1.0)
        if res.accepted:
            basis.append(res.new_element)

    rounds = 0
    frontier_start = 0
    while frontier_start < len(basis) < target:
        if rounds == max_rounds:
            raise NonConvergenceError(
                f"basis still growing after {max_rounds} rounds "
                f"(dimension {len(basis)} of {target}); revisit the tolerance"
            )
        rounds += 1
        frontier_end = len(basis)
        for i in range(frontier_start, frontier_end):
            a = basis[i]
            stack = np.stack(basis)
            candidates = a @ stack - stack @ a
            for c in candidates:
                if hs_norm(c, 1.0) <= tol:
                    continue
                res = reference_extend(basis, c, tol=tol, normalizer=1.0)
                if res.accepted:
                    basis.append(res.new_element)
                    if len(basis) == target:
                        break
            if len(basis) == target:
                break
        frontier_start = frontier_end

    achieved = len(basis)
    return ClosureResult(
        achieved_dim=achieved,
        target_dim=target,
        basis=tuple(basis),
        rounds=rounds,
        tolerance_used=tol,
        universal=achieved == target,
    )


def _first_reached(seeds: np.ndarray, l: int, n: int, tol: float) -> Optional[np.ndarray]:
    """The monomials the seeds have components along, in first-reach order.

    None as soon as they outnumber the seeds.  The seeds are decomposed
    ``_SUPPORT_ROWS`` at a time, which bounds the FFT workspace, and a dense
    seed ends the search at its own block.
    """
    d = seeds.shape[-1]
    member = np.zeros(d * d, dtype=bool)
    blocks = []
    for start in range(0, len(seeds), _SUPPORT_ROWS):
        table = _decompose(seeds[start:start + _SUPPORT_ROWS], l, n)
        # A unit seed's component along W(x) has norm |coefficient| * sqrt(d).
        # Flat indices run seed by seed, each seed's codes in increasing order.
        met = np.flatnonzero(np.abs(table) > tol / np.sqrt(d)) % (d * d)
        _, first = np.unique(met, return_index=True)
        met = met[np.sort(first)]
        met = met[~member[met]]
        member[met] = True
        blocks.append(met)
        if np.count_nonzero(member) > len(seeds):
            return None
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.intp)


def _monomial_basis(l: int, n: int, codes: np.ndarray, mode: str) -> np.ndarray:
    """Orthonormal basis of the matrices of ``mode`` spanned by the monomials ``codes``.

    Each element is ``a W + b W*`` for one monomial ``W``, written entry by
    entry into one zeroed array, so building it takes no memory beyond the
    basis itself.
    """
    d = l**n
    if mode == COMPLEX_TRACELESS:
        lead, a, b = codes, np.full(len(codes), 1 / np.sqrt(d)), np.zeros(len(codes))
    else:
        # codes holds -x with every x; x leads its pair if it comes first
        neg = _negated(l, n)
        position = np.empty(d * d, dtype=np.intp)
        position[codes] = np.arange(len(codes))
        first = codes[position[codes] <= position[neg[codes]]]
        paired = neg[first] != first
        lead = np.repeat(first, 1 + paired)
        second = np.zeros(len(lead), dtype=bool)
        second[np.cumsum(1 + paired)[paired] - 1] = True
        # W - W* and i (W + W*) for a pair {x, -x}; when x = -x, W* = +-W and
        # their sum is the one nonzero combination
        a = np.where(second, 1j, 1.0) / np.sqrt(2 * d)
        b = np.where(second, 1j, -1.0) / np.sqrt(2 * d)
        alone = ~np.repeat(paired, 1 + paired)
        a[alone], b[alone] = (1 + 1j) / (2 * np.sqrt(d)), (1j - 1) / (2 * np.sqrt(d))
    cols, values = _monomial_entries(l, n, lead)
    element, row = np.arange(len(lead))[:, None], np.arange(d)[None, :]
    basis = np.zeros((len(lead), d, d), dtype=complex)
    basis[element, row, cols] += a[:, None] * values
    basis[element, cols, row] += b[:, None] * values.conj()
    return basis


def reference_prepare(matrices, mode: str) -> List[np.ndarray]:
    """The matrices :func:`quditkit.prepare_generators` returns, built one input at a time."""
    mats = [as_matrix(m) for m in matrices]
    if not mats:
        raise ValueError("generator set is empty")
    dim = mats[0].shape[0]
    for idx, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ValueError(f"matrix {idx} has dimension {m.shape[0]}, expected {dim}")
    processed: List[np.ndarray] = []
    for m in mats:
        t = traceless_project(m)
        if mode == REAL_ANTIHERMITIAN:
            processed.extend(hermitian_split(t))
        else:
            processed.append(t)
    return processed


def reference_validate(dim: int, matrices: Sequence[np.ndarray], mode: str) -> None:
    """The shape and anti-Hermitian checks of :class:`quditkit.GeneratorSet`, one matrix at a time."""
    for idx, m in enumerate(matrices):
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix {idx} has shape {m.shape}, expected {(dim, dim)}"
            )
        if mode == REAL_ANTIHERMITIAN:
            if max_abs(m + dagger(m)) > _ANTIHERMITIAN_TOL:
                raise ValueError(
                    f"matrix {idx} is not anti-Hermitian; real mode requires "
                    "preprocessed input (see prepare_generators)"
                )
