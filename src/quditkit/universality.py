"""Lie-algebra closure engine deciding universality of generator sets.

A set of matrices is universal when linear combinations and repeated
commutators span the full traceless algebra: dimension d^2 - 1 over the
reals for anti-Hermitian spans (the su(d) case) and over the complex
numbers for unconstrained traceless spans (the sl(d, C) case).  Both modes
run the same arithmetic: within the anti-Hermitian subspace, complex and
real linear dependence coincide, so one orthonormalization kernel counts
dimensions correctly for either field.  Sets spanned by Weyl monomials are
decided by index arithmetic on the monomials instead (see :func:`closure`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

# closure does not call hs_norm; importing it keeps universality.hs_norm bound
# for perfbench's traced run, which wraps that binding by name.
from .linalg import hs_norm  # noqa: F401
from .linalg import _check_tolerance, as_matrix, dagger, matrix_exp, max_abs, orthonormal_extend
from .weyl import _decompose, _digits, _monomial_entries

__all__ = [
    "REAL_ANTIHERMITIAN",
    "COMPLEX_TRACELESS",
    "MODES",
    "NonConvergenceError",
    "GeneratorSet",
    "ClosureResult",
    "traceless_project",
    "hermitian_split",
    "prepare_generators",
    "closure",
    "is_universal",
    "gate_from_generator",
]

REAL_ANTIHERMITIAN = "real-antihermitian"
COMPLEX_TRACELESS = "complex-traceless"
MODES = (REAL_ANTIHERMITIAN, COMPLEX_TRACELESS)

_ANTIHERMITIAN_TOL = 1e-11
# Commutators screened per block; bounds the screening workspaces at a few
# _SCREEN_ROWS x d^2 arrays whatever the basis size.
_SCREEN_ROWS = 32
# Seeds decomposed over the Weyl monomials per block, for the same reason.
_SUPPORT_ROWS = 8


class NonConvergenceError(RuntimeError):
    """Round cap reached while the basis was still growing (tolerance trouble)."""


def traceless_project(m) -> np.ndarray:
    """Remove the identity component: ``m - (Tr m / dim) * 1``."""
    m = as_matrix(m)
    d = m.shape[0]
    return m - (np.trace(m) / d) * np.eye(d, dtype=complex)


def hermitian_split(m) -> Tuple[np.ndarray, np.ndarray]:
    """Anti-Hermitian pair ``(i(m + m*), m - m*)`` carrying all of ``m``.

    Both outputs satisfy X* = -X, and ``m`` is recovered as
    ``(-1j * first + second) / 2``, so replacing a matrix by the pair loses
    nothing while moving it into the anti-Hermitian subspace.
    """
    m = as_matrix(m)
    mh = dagger(m)
    return 1j * (m + mh), m - mh


@dataclass(frozen=True)
class GeneratorSet:
    """Preprocessed input to :func:`closure`; build via :func:`prepare_generators`."""

    name: str
    dim: int
    matrices: Tuple[np.ndarray, ...]
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        for idx, m in enumerate(self.matrices):
            if m.shape != (self.dim, self.dim):
                raise ValueError(
                    f"matrix {idx} has shape {m.shape}, expected {(self.dim, self.dim)}"
                )
            if self.mode == REAL_ANTIHERMITIAN:
                if max_abs(m + dagger(m)) > _ANTIHERMITIAN_TOL:
                    raise ValueError(
                        f"matrix {idx} is not anti-Hermitian; real mode requires "
                        "preprocessed input (see prepare_generators)"
                    )


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of a closure run; ``universal`` iff the full target dimension was reached.

    ``engine`` names the engine that ran, ``"monomial"`` or ``"dense"``
    (see :func:`closure`).
    """

    achieved_dim: int
    target_dim: int
    basis: Tuple[np.ndarray, ...]
    rounds: int
    tolerance_used: float
    universal: bool
    engine: str = "dense"


def prepare_generators(
    matrices: Iterable[np.ndarray], mode: str, name: str = ""
) -> GeneratorSet:
    """Project inputs to traceless form and, in real mode, split them anti-Hermitian."""
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
    return GeneratorSet(name=name, dim=dim, matrices=tuple(processed), mode=mode)


def closure(
    gen_set: GeneratorSet,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> ClosureResult:
    """Grow an orthonormal basis of the Lie algebra generated by the set.

    The inputs seed the basis through :func:`orthonormal_extend` (raw trace
    inner product, so duplicates and dependent directions drop out).  An
    input whose norm is at most ``tol`` times the largest input norm is
    treated as zero, as a commutator of norm at most ``tol`` is: rounding
    dust such as ``m - m*`` of a Hermitian ``m`` would otherwise pass the
    relative test and count as a direction.

    The seeds are then decomposed over the Weyl monomials ``W(x)``,
    x in Z_l^(2n), of each factorization d = l^n (smallest l first; see
    :mod:`quditkit.weyl`).  Their support S0 is the set of monomials on
    which some seed has a component of norm above ``tol``.  When S0 has
    exactly as many monomials as the seeds have rank, leaves out the
    identity and, in real mode, holds ``-x`` with every ``x``, the seeds
    span every matrix of the mode supported on S0.  Since
    ``[W(x), W(y)]`` is a nonzero multiple of ``W(x + y)`` exactly when
    the symplectic form of x and y is nonzero mod l, the closure is then
    decided on integer codes (the ``"monomial"`` engine); otherwise the
    dense sweep below runs (the ``"dense"`` engine).  The input decides;
    :attr:`ClosureResult.engine` reports which ran.

    Both engines run the same schedule.  Each round sweeps every element
    added in the previous round (the frontier), in order, against the
    elements present when that element's sweep began, less the frontier
    elements before it, whose pairs an earlier sweep of the same round
    already formed with the opposite sign.  The run stops when a round
    adds nothing or the target dimension d^2 - 1 is reached, and
    ``rounds`` counts the rounds.  The dense engine sweeps basis matrices
    and inserts new ``[a, b] = a@b - b@a`` directions.  The monomial engine
    sweeps monomial codes, seeded in the order the seeds first reach them,
    and inserts ``x + y`` when it is new and the symplectic form is
    nonzero; in real mode it inserts ``-(x + y)`` right after, since an
    anti-Hermitian matrix with a component along ``W(z)`` has one along
    ``W(-z)``.  When every seed is one monomial, as in complex mode for
    phase-times-monomial inputs, the dense engine accepts those same
    monomials in the same order and the two count the same rounds.  A
    real-mode dense element mixes several pairs {z, -z}, and a cancellation
    among them can delay a direction by a round, so there the counts can
    differ; they agree on every named set with d <= 16.  Processing order
    is deterministic, so identical inputs yield identical bases.

    The dense engine's basis is the Gram-Schmidt basis it grew.  Commutators
    whose norm does not exceed ``tol`` are treated as zero.  The rest are
    screened in blocks by one block Gram-Schmidt pass against the basis:
    one whose residual is at most ``tol`` times its norm is rejected there.
    The survivors get a second pass, are orthonormalized in order against
    the elements accepted earlier in their block, and are accepted under
    the test :func:`orthonormal_extend` applies, so the accepted sequence
    is the one a candidate-by-candidate sweep gives.  Screening is the
    dominant cost, O(d^8) for a universal set (O(d^4) candidates at O(d^4)
    each), run as BLAS block products over a fixed number of candidates at
    a time.

    The monomial engine's basis is built from the reached monomials, in
    the order reached: ``W(x) / sqrt(d)`` in complex mode; in real mode the
    two anti-Hermitian combinations ``(W - W*)`` and ``i (W + W*)`` of
    ``W = W(x)`` for each pair {x, -x}, normalized, and the one nonzero
    combination ``(W - W*) + i (W + W*)`` when x = -x.  It spans the space
    the dense engine's basis spans, but is a different basis of it.  A
    sweep costs O(d^2) integer operations, O(d^4) for a universal set, and
    the basis O(d^4) memory, as the dense engine's does.

    ``tol`` must be finite and positive (:class:`ValueError` otherwise).
    Raises :class:`NonConvergenceError` when ``max_rounds`` is exhausted
    with growth still pending (default cap: target dimension + 2, which an
    honestly converging run can never hit).
    """
    builder, max_rounds = _seed(gen_set, max_rounds, tol)
    found = _monomial_support(builder.elements(), gen_set.mode, tol)
    if found is None:
        return _dense_sweep(builder, max_rounds)
    del builder  # frees the seeds before the monomial basis is built
    return _monomial_closure(*found, gen_set.mode, max_rounds, tol)


def _dense_closure(
    gen_set: GeneratorSet,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> ClosureResult:
    """:func:`closure` on the dense engine whatever the input."""
    return _dense_sweep(*_seed(gen_set, max_rounds, tol))


def _seed(
    gen_set: GeneratorSet, max_rounds: Optional[int], tol: float
) -> Tuple["_BasisBuilder", int]:
    """The basis builder holding the seeds, and the round cap."""
    if not gen_set.matrices:
        raise ValueError("generator set is empty")
    _check_tolerance(tol)
    d = gen_set.dim
    if max_rounds is None:
        max_rounds = d * d + 1  # the target dimension + 2
    builder = _BasisBuilder(d, tol)
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


def _dense_sweep(builder: "_BasisBuilder", max_rounds: int) -> ClosureResult:
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
    return _result(builder.elements().copy(), target, rounds, builder.tol, "dense")


def _non_convergence(max_rounds: int, size: int, target: int) -> NonConvergenceError:
    return NonConvergenceError(
        f"basis still growing after {max_rounds} rounds "
        f"(dimension {size} of {target}); revisit the tolerance"
    )


def _result(basis: np.ndarray, target: int, rounds: int, tol: float, engine: str) -> ClosureResult:
    return ClosureResult(
        achieved_dim=len(basis),
        target_dim=target,
        basis=tuple(basis),
        rounds=rounds,
        tolerance_used=tol,
        universal=len(basis) == target,
        engine=engine,
    )


def _factorizations(d: int) -> List[Tuple[int, int]]:
    """Every (l, n) with l^n == d and l >= 2, smallest l first."""
    pairs = [(round(d ** (1 / n)), n) for n in range(d.bit_length() - 1, 0, -1)]
    return [(l, n) for l, n in pairs if l**n == d]


def _negated(l: int, n: int) -> np.ndarray:
    """Code of ``-x`` for every monomial code x of n l-level sites."""
    return ((-_digits(l, 2 * n)) % l) @ (l ** np.arange(2 * n - 1, -1, -1))


def _monomial_support(
    seeds: np.ndarray, mode: str, tol: float
) -> Optional[Tuple[int, int, np.ndarray]]:
    """``(l, n, codes)`` when the orthonormal seeds span all of their monomial support.

    ``codes`` lists the support in the order the seeds first reach it, each
    seed's monomials by increasing code.  None when no factorization of d
    qualifies (see :func:`closure`).
    """
    for l, n in _factorizations(seeds.shape[-1]):
        codes = _first_reached(seeds, l, n, tol)
        if codes is None or 0 in codes:
            continue
        if mode == REAL_ANTIHERMITIAN and not np.isin(_negated(l, n)[codes], codes).all():
            continue
        return l, n, codes
    return None


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


def _monomial_closure(
    l: int, n: int, seed_codes: np.ndarray, mode: str, max_rounds: int, tol: float
) -> ClosureResult:
    """The closure of the monomials ``seed_codes`` by index arithmetic (see :func:`closure`)."""
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
                new = _with_negations(new, neg)
            member[new] = True
            codes[size:size + len(new)] = new
            size += len(new)
            if size == target:
                break
        frontier_start = frontier_end
    basis = _monomial_basis(l, n, codes[:size], mode)
    return _result(basis, target, rounds, tol, "monomial")


def _with_negations(new: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Each pair {z, -z} met in ``new``, in order of first meeting, as z then -z.

    An anti-Hermitian matrix with a component along W(z) has one along
    W(-z), so real mode admits the two together; members stay closed under
    negation, so neither is a member yet.
    """
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


class _BasisBuilder:
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


def is_universal(
    matrices: Sequence[np.ndarray],
    l: int,
    n: int,
    mode: str = REAL_ANTIHERMITIAN,
    tol: float = 1e-9,
) -> bool:
    """Preprocess, run the closure, and report whether the set is universal."""
    d = l**n
    mats = [as_matrix(m) for m in matrices]
    for idx, m in enumerate(mats):
        if m.shape[0] != d:
            raise ValueError(
                f"matrix {idx} has dimension {m.shape[0]}, expected l^n = {d}"
            )
    gen = prepare_generators(mats, mode)
    return closure(gen, tol=tol).universal


def gate_from_generator(m, tau: float) -> Tuple[np.ndarray, np.ndarray]:
    """Unitary gate pair from an arbitrary complex generator.

    Returns ``(exp(i (m + m*) tau), exp((m - m*) tau))``; both exponents are
    anti-Hermitian times tau, so both gates are unitary for real tau.
    """
    m = as_matrix(m)
    tau = float(tau)
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    mh = dagger(m)
    first = matrix_exp(1j * tau * (m + mh))
    second = matrix_exp(tau * (m - mh))
    return first, second
