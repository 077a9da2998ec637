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
lazy basis.  ``reference_routed_closure`` is :func:`quditkit.closure` as
it chose its engine from the seeds after Gram-Schmidt, the reference for
the choice from the raw seeds' Weyl coefficients (``seed_coefficients``
and ``off_support``).
``reference_monomial_closure`` is the monomial engine's sweep as it
gathered each partner's digits from the code table, the reference for the
sweep over stored digit rows.
``reference_prepare`` and ``reference_validate`` are
:func:`quditkit.prepare_generators` and the :class:`quditkit.GeneratorSet`
checks matrix by matrix, the references for the stacked ones.

``complex_dense_closure`` is the batched dense engine with every sweep in
complex arithmetic, two products per commutator and complex projections,
the reference for the real-mode sweep on real coordinates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
from quditkit.linalg import (
    ExtendResult,
    _check_tolerance,
    as_matrix,
    dagger,
    hs_inner,
    hs_norm,
    max_abs,
    orthonormal_extend,
)
from quditkit import universality
from quditkit.universality import (
    _ANTIHERMITIAN_TOL,
    _SCREEN_ROWS,
    _SUPPORT_ROWS,
    _negated,
    _non_convergence,
    _result,
)
from quditkit.weyl import _decompose, _digits, _monomial_entries


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


def seed_coefficients(
    seeds: Sequence[np.ndarray], norms: np.ndarray, l: int, n: int, tol: float
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``universality._first_reached`` from the full decomposition of each unit seed."""
    d = l**n
    units = np.stack([m / norm for m, norm in zip(seeds, norms)]) if len(seeds) else np.zeros((0, d, d))
    codes = _first_reached(units, l, n, tol)
    if codes is None:
        return None
    table = _decompose(units, l, n).reshape(len(units), -1)
    reached = np.abs(table) > tol / np.sqrt(d)
    components = table * np.sqrt(d)  # along W(x) / sqrt(d), an orthonormal basis
    outside = np.sqrt(np.sum(np.abs(np.where(reached, 0, components)) ** 2, axis=1))
    return codes, np.where(reached, components, 0)[:, codes], outside


def off_support(unit: np.ndarray, codes: np.ndarray, l: int, n: int) -> float:
    """``universality._off_support`` from the full decomposition of the unit seed."""
    components = _decompose(unit[None], l, n).reshape(-1) * np.sqrt(l**n)
    components[codes] = 0
    return float(np.sqrt(np.sum(np.abs(components) ** 2)))


def reference_routed_closure(
    gen_set: GeneratorSet,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> ClosureResult:
    """:func:`quditkit.closure` seeding the dense engine's basis first and
    searching the support of the orthonormal seeds."""
    real = gen_set.mode == REAL_ANTIHERMITIAN
    builder, max_rounds = _seed(gen_set, max_rounds, tol, lambda d, tol: universality._BasisBuilder(d, tol, real))
    found = _orthonormal_support(builder.elements(), gen_set.mode, tol)
    if found is None:
        return universality._dense_sweep(builder, max_rounds)
    del builder  # frees the seeds before the index search
    return universality._monomial_closure(*found, gen_set.mode, max_rounds, tol)


def _orthonormal_support(
    seeds: np.ndarray, mode: str, tol: float
) -> Optional[Tuple[int, int, np.ndarray]]:
    """``(l, n, codes)`` when the orthonormal seeds span all of their monomial support.

    ``codes`` lists the support in the order the seeds first reach it, each
    seed's monomials by increasing code.  None when no factorization of d
    qualifies.
    """
    for l, n in universality._factorizations(seeds.shape[-1]):
        codes = _first_reached(seeds, l, n, tol)
        if codes is None or 0 in codes:
            continue
        if mode == REAL_ANTIHERMITIAN and not np.isin(_negated(l, n)[codes], codes).all():
            continue
        return l, n, codes
    return None


def reference_monomial_closure(
    l: int, n: int, seed_codes: np.ndarray, mode: str, max_rounds: int, tol: float
) -> ClosureResult:
    """The monomial engine's sweep gathering each partner's digits from the
    code table and forming the symplectic form from two half products."""
    d = l**n
    target = d * d - 1
    digits = _digits(l, 2 * n)  # row x: shift digits a, then clock digits b
    weights = l ** np.arange(2 * n - 1, -1, -1)
    neg = _negated(l, n) if mode == REAL_ANTIHERMITIAN else None
    member = np.zeros(d * d, dtype=bool)
    codes = np.empty(target, dtype=np.intp)  # the identity, code 0, is never reached
    size = len(seed_codes)
    codes[:size] = seed_codes
    member[seed_codes] = True
    rounds = 0
    frontier_start = 0
    while frontier_start < size < target:
        if rounds == max_rounds:
            raise _non_convergence(max_rounds, size, target)
        rounds += 1
        frontier_end = size
        for i in range(frontier_start, frontier_end):
            x = digits[codes[i]]
            y = digits[np.concatenate((codes[:frontier_start], codes[i + 1:size]))]
            # [W(x), W(y)] is a nonzero multiple of W(x + y) iff a_x.b_y - b_x.a_y != 0 mod l
            omega = (y[:, n:] @ x[:n] - y[:, :n] @ x[n:]) % l
            sums = ((x + y) % l) @ weights
            new = sums[(omega != 0) & ~member[sums]]
            if neg is not None and new.size:
                new = _reference_with_negations(new, neg)
            member[new] = True
            codes[size:size + len(new)] = new
            size += len(new)
            if size == target:
                break
        frontier_start = frontier_end
    return _result(universality._MonomialBasis(l, n, codes[:size], mode), target, rounds, tol, "monomial")


def _reference_with_negations(new: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Each pair {z, -z} met in ``new``, in order of first meeting, as z then -z,
    the first meetings found by sorting."""
    _, first = np.unique(np.minimum(new, neg[new]), return_index=True)
    lead = new[np.sort(first)]
    pairs = np.stack((lead, neg[lead]), axis=1)
    keep = np.ones(pairs.shape, dtype=bool)
    keep[:, 1] = pairs[:, 1] != lead  # z = -z counts once
    return pairs[keep]


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


# The dense engine in complex arithmetic in both modes, as it ran before real
# mode moved to real coordinates: two complex products per commutator and
# complex projections.


def complex_dense_closure(
    gen_set: GeneratorSet,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> ClosureResult:
    """``universality._dense_closure`` with every sweep in complex arithmetic."""
    return _dense_sweep(*_seed(gen_set, max_rounds, tol))


def _seed(
    gen_set: GeneratorSet, max_rounds: Optional[int], tol: float, make_builder=None
) -> Tuple["ComplexBasisBuilder", int]:
    """The basis builder holding the seeds, and the round cap.

    ``make_builder(d, tol)`` makes the builder, a :class:`ComplexBasisBuilder`
    by default.
    """
    if not gen_set.matrices:
        raise ValueError("generator set is empty")
    _check_tolerance(tol)
    d = gen_set.dim
    if max_rounds is None:
        max_rounds = d * d + 1  # the target dimension + 2
    builder = (make_builder or ComplexBasisBuilder)(d, tol)
    norms = [np.linalg.norm(m) for m in gen_set.matrices]
    floor = tol * max(norms)
    for m, norm in zip(gen_set.matrices, norms):
        # Traceless commutators never leave a (d^2 - 1)-dimensional space, but
        # a GeneratorSet built by hand may also carry the identity direction.
        if builder.size == d * d:
            break  # the basis already spans every d x d matrix
        if norm > floor:
            builder.offer(m)
    return builder, max_rounds


def _dense_sweep(builder: "ComplexBasisBuilder", max_rounds: int) -> ClosureResult:
    target = builder.d * builder.d - 1
    rounds = 0
    frontier_start = 0
    while frontier_start < builder.size < target:
        if rounds == max_rounds:
            raise _non_convergence(max_rounds, builder.size, target)
        rounds += 1
        frontier_end = builder.size
        for i in range(frontier_start, frontier_end):
            builder.sweep(i, frontier_start, target)
            if builder.size == target:
                break
        frontier_start = frontier_end
    return _result(tuple(builder.elements().copy()), target, rounds, builder.tol, "dense")


class ComplexBasisBuilder:
    """The growing orthonormal basis of one closure run and its screening buffers.

    The basis fills the leading rows of one (capacity, d, d) array that
    doubles when full, up to d^2 rows, so its memory follows the achieved
    dimension rather than d^2.  The buffers hold one block of
    ``_SCREEN_ROWS`` commutators and are reused for every block; the first
    sweep allocates them, so seeding alone, all the monomial engine needs,
    does not.
    """

    def __init__(self, d: int, tol: float):
        self.d = d
        self.tol = tol
        self.size = 0
        self.rows = np.empty((min(d * d, _SCREEN_ROWS), d, d), dtype=complex)
        self.comm = None  # the screening buffers, allocated by the first sweep

    def _allocate_screen(self) -> None:
        d = self.d
        self.comm = np.empty((_SCREEN_ROWS, d, d), dtype=complex)
        self.prod = np.empty((_SCREEN_ROWS, d, d), dtype=complex)
        self.resid = np.empty((_SCREEN_ROWS, d * d), dtype=complex)
        self.coef = np.empty(_SCREEN_ROWS * d * d, dtype=complex)

    def elements(self) -> np.ndarray:
        return self.rows[: self.size]

    def offer(self, candidate: np.ndarray) -> None:
        """Add the part of ``candidate`` outside the span, if it is not negligible."""
        res = orthonormal_extend(self.elements(), candidate, tol=self.tol, normalizer=1.0)
        if res.accepted:
            self._append(res.new_element)

    def _append(self, element: np.ndarray) -> None:
        if self.size == len(self.rows):
            d = self.d
            grown = np.empty((min(d * d, 2 * self.size), d, d), dtype=complex)
            grown[: self.size] = self.elements()
            self.rows = grown
        self.rows[self.size] = element
        self.size += 1

    def sweep(self, i: int, frontier_start: int, target: int) -> None:
        """Add the new directions among the commutators of element ``i``; stop at ``target``.

        Partners are the ``n`` elements present when the sweep starts, less
        ``frontier_start..i``: ``[b_i, b_i] = 0``, and the frontier elements
        before ``i`` were swept against a basis holding ``b_i``, so
        ``[b_i, b_j] = -[b_j, b_i]`` is already in the span.  The partners
        go in blocks of ``_SCREEN_ROWS``.  A block's commutators of norm at
        most ``tol`` are dropped; one block Gram-Schmidt pass against the
        basis rejects those whose residual is at most ``tol`` times their
        norm, which one pass decides to O(eps) of that norm.  The survivors
        get the second pass as one block product and are then admitted in
        order by :meth:`admit`.  Screening one commutator against k basis
        elements of d^2 entries costs O(k d^2), and a universal run screens
        O(d^4) commutators against up to d^2 - 1 elements: O(d^8) overall.
        """
        if self.comm is None:
            self._allocate_screen()
        n = self.size
        for lo, hi in ((0, frontier_start), (i + 1, n)):
            for start in range(lo, hi, _SCREEN_ROWS):
                if self._sweep_block(i, start, min(hi, start + _SCREEN_ROWS), target):
                    return

    def _sweep_block(self, i: int, start: int, stop: int, target: int) -> bool:
        """Screen and admit ``[b_i, b_j]`` for ``start <= j < stop``; True once at ``target``."""
        dd = self.d * self.d
        comm = self.comm.reshape(_SCREEN_ROWS, dd)
        rows = stop - start
        a = self.rows[i]
        block = self.rows[start:stop]
        np.matmul(a, block, out=self.comm[:rows])
        np.matmul(block, a, out=self.prod[:rows])
        comm[:rows] -= self.prod.reshape(_SCREEN_ROWS, dd)[:rows]
        norms = _row_norms(comm[:rows])
        live = np.flatnonzero(norms > self.tol)
        if not live.size:
            return False
        k = self.size
        flat = self.rows[:k].reshape(k, dd)
        resid = self.resid[: live.size]
        np.take(comm, live, axis=0, out=resid)
        self._project(resid, flat)
        norms = norms[live]
        keep = np.flatnonzero(_row_norms(resid) > self.tol * norms)
        if not keep.size:
            return False
        survivors = self.resid[: keep.size]
        survivors[:] = resid[keep]
        self._project(survivors, flat)
        for s, norm in zip(survivors, norms[keep]):
            self.admit(s, norm, k)
            if self.size == target:
                return True
        return False

    def _project(self, resid: np.ndarray, flat: np.ndarray) -> None:
        """One block Gram-Schmidt pass: ``resid -= (resid B^H) B`` with B the rows of ``flat``."""
        m, k = len(resid), len(flat)
        prod = self.prod.reshape(_SCREEN_ROWS, -1)[:m]
        coef = self.coef[: m * k].reshape(m, k)
        # R B^H == conj(conj(R) B^T), which spares a conjugated copy of B
        np.conjugate(resid, out=prod)
        np.matmul(prod, flat.T, out=coef)
        np.conjugate(coef, out=coef)
        np.matmul(coef, flat, out=prod)
        resid -= prod

    def admit(self, residual: np.ndarray, norm: float, k: int) -> None:
        """Add a screened commutator if its residual exceeds ``tol * norm``.

        ``residual`` (flat, overwritten) is already orthogonal to the first
        ``k`` elements; two passes project it against those added since,
        and the test is the one :func:`orthonormal_extend` applies.
        """
        added = self.rows[k:self.size].reshape(-1, self.d * self.d)
        for _ in range(2):
            residual -= (added @ residual.conj()).conj() @ added
        rnorm = np.linalg.norm(residual)
        if rnorm > self.tol * norm:
            self._append((residual / rnorm).reshape(self.d, self.d))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Frobenius norm of each row of a C-contiguous complex array, without temporaries."""
    parts = rows.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))
