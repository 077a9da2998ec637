"""Lie-algebra closure engine deciding universality of generator sets.

A set of matrices is universal when linear combinations and repeated
commutators span the full traceless algebra: dimension d^2 - 1 over the
reals for anti-Hermitian spans (the su(d) case) and over the complex
numbers for unconstrained traceless spans (the sl(d, C) case).  Within the
anti-Hermitian subspace, complex and real linear dependence coincide, so one
orthonormalization scheme counts dimensions correctly for either field; real
mode runs it in real arithmetic on d^2 real coordinates per matrix.  Sets
spanned by Weyl monomials are decided by index arithmetic on the monomials
instead (see :func:`closure`).
"""

from __future__ import annotations

import copy
import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

# closure does not call hs_norm; importing it keeps universality.hs_norm bound
# for perfbench's traced run, which wraps that binding by name.
from .linalg import hs_norm  # noqa: F401
from .linalg import _check_tolerance, as_matrix, dagger, matrix_exp, orthonormal_extend
from .weyl import _diagonal_coefficients, _digits, _monomial_entries, _wrapped_diagonals

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
# Commutators screened per block; each block allocates a few _SCREEN_ROWS x d^2
# temporaries whatever the basis size.
_SCREEN_ROWS = 32
# Seeds decomposed over the Weyl monomials, and matrices checked anti-Hermitian,
# per block, for the same reason.
_SUPPORT_ROWS = 8
# The support search skips a diagonal whose entries are all at most its
# threshold times this; the margin is far above the FFT's rounding, so the
# skip is exact in floating point too.
_SKIP_MARGIN = 1 - 1e-12


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

    @classmethod
    def _prepared(cls, name: str, dim: int, matrices: Tuple[np.ndarray, ...], mode: str) -> "GeneratorSet":
        """A set :func:`prepare_generators` made valid by construction, built without the checks."""
        prepared = object.__new__(cls)
        vars(prepared).update(name=name, dim=dim, matrices=matrices, mode=mode)
        return prepared

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        shape = (self.dim, self.dim)
        misshapen = next(
            (idx for idx, m in enumerate(self.matrices) if m.shape != shape), len(self.matrices)
        )
        if self.mode == REAL_ANTIHERMITIAN:
            # in blocks, which keeps the temporaries small
            for start in range(0, misshapen, _SUPPORT_ROWS):
                stop = min(misshapen, start + _SUPPORT_ROWS)
                _check_antihermitian(self.matrices[start:stop], start)
        if misshapen < len(self.matrices):
            m = self.matrices[misshapen]
            raise ValueError(f"matrix {misshapen} has shape {m.shape}, expected {shape}")


def _check_antihermitian(matrices: Sequence[np.ndarray], offset: int) -> None:
    """Raise for the first of ``matrices`` (numbered from ``offset``) that is
    not finite or not anti-Hermitian, as a matrix-by-matrix check would."""
    stack = np.stack(matrices)
    finite = np.isfinite(stack).all(axis=(1, 2))
    checked = len(stack) if finite.all() else int(np.argmin(finite))
    skew = stack[:checked].transpose(0, 2, 1).conj()
    skew += stack[:checked]
    failed = np.flatnonzero(np.abs(skew).max(axis=(1, 2), initial=0.0) > _ANTIHERMITIAN_TOL)
    if failed.size:
        raise ValueError(
            f"matrix {offset + failed[0]} is not anti-Hermitian; real mode requires "
            "preprocessed input (see prepare_generators)"
        )
    if checked < len(stack):
        as_matrix(stack[checked])  # raises its message for non-finite entries


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of a closure run; ``universal`` iff the full target dimension was reached.

    ``engine`` names the engine that ran, ``"monomial"`` or ``"dense"``
    (see :func:`closure`).  ``basis`` holds ``achieved_dim`` orthonormal
    (d, d) matrices: a tuple from the dense engine; from the monomial
    engine, a read-only :class:`~collections.abc.Sequence` (``len``,
    indexing, slicing, iteration) that builds each matrix on request, so
    the result costs O(d^2) memory at any dimension.  A monomial basis is
    orthonormal to rounding.  A dense basis is orthonormal to the accuracy
    of its Gram-Schmidt steps: ``max |F^H F - I|`` over the flattened
    basis F is at most 2.1e-14 on the named sets with d <= 16, but an
    element admitted with a small relative residual keeps less: 3.9e-11 on
    a real-mode block pair of su(5) + su(6) in the tests.
    """

    achieved_dim: int
    target_dim: int
    basis: Sequence[np.ndarray]
    rounds: int
    tolerance_used: float
    universal: bool
    engine: str = "dense"


def prepare_generators(
    matrices: Iterable[np.ndarray], mode: str, name: str = ""
) -> GeneratorSet:
    """Project inputs to traceless form and, in real mode, split them anti-Hermitian.

    The inputs are processed as one (k, d, d) stack with the elementwise
    arithmetic of :func:`traceless_project` and :func:`hermitian_split`, so
    the output equals theirs bit for bit; real mode puts each input's pair
    in place of the input.  Beyond the inputs, the call holds one copy of
    the stack and, in real mode, the (2k, d, d) split that it returns: at
    most three stacks' worth in all.  That arithmetic makes every real-mode
    output exactly anti-Hermitian, so the set skips the check a hand-built
    real-mode :class:`GeneratorSet` gets.  In either mode an overflow to a
    non-finite entry raises ``ValueError``.
    """
    stack = _stack_inputs(matrices)
    k, d = stack.shape[:2]
    # An overflow leaves non-finite entries, which _check_finite alone reports.
    with np.errstate(over="ignore", invalid="ignore"):
        traces = np.trace(stack, axis1=1, axis2=2) / d
        stack -= traces[:, None, None] * np.eye(d, dtype=complex)
    if mode != REAL_ANTIHERMITIAN:
        _check_finite(stack)
        return GeneratorSet(name=name, dim=d, matrices=tuple(stack), mode=mode)
    # written in place: temporaries of the whole stack cost more than the arithmetic
    split = np.empty((k, 2, d, d), dtype=complex)
    adjoint = split[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        np.conjugate(stack.transpose(0, 2, 1), out=adjoint)
        np.add(stack, adjoint, out=split[:, 0])
        split[:, 0] *= 1j
        np.subtract(stack, adjoint, out=adjoint)
    # i(M + M*) and M - M* are exactly anti-Hermitian; only an overflow can fail the check
    _check_finite(split)
    return GeneratorSet._prepared(name, d, tuple(split.reshape(2 * k, d, d)), mode)


def _check_finite(stack: np.ndarray) -> None:
    """Raise :func:`as_matrix`'s error if the arithmetic on finite inputs overflowed."""
    parts = stack.view(np.float64)
    if not (np.isfinite(parts.max()) and np.isfinite(parts.min())):
        raise ValueError("matrix contains non-finite entries")


def _stack_inputs(matrices: Iterable[np.ndarray]) -> np.ndarray:
    """The inputs as one new complex (k, d, d) stack, under the checks of :func:`as_matrix`.

    Well-formed inputs are checked at once.  Otherwise the checks run matrix
    by matrix, so the error is the one the first malformed matrix raises.
    """
    arrays = [np.asarray(m, dtype=complex) for m in matrices]
    if arrays and all(a.shape == arrays[0].shape for a in arrays):
        stack = np.stack(arrays)
        if stack.ndim == 3 and stack.shape[1] == stack.shape[2] >= 1 and np.isfinite(stack).all():
            return stack
    mats = [as_matrix(m) for m in arrays]
    if not mats:
        raise ValueError("generator set is empty")
    dim = mats[0].shape[0]
    for idx, m in enumerate(mats):
        if m.shape[0] != dim:
            raise ValueError(f"matrix {idx} has dimension {m.shape[0]}, expected {dim}")
    return np.stack(mats)


def closure(
    gen_set: GeneratorSet,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> ClosureResult:
    """Grow an orthonormal basis of the Lie algebra generated by the set.

    The inputs are the seeds.  An input whose norm is at most ``tol`` times
    the largest input norm is treated as zero, as a commutator of norm at
    most ``tol`` is: rounding dust such as ``m - m*`` of a Hermitian ``m``
    would otherwise pass the relative test and count as a direction.

    The engine is chosen from the Weyl coefficients of the seeds, each
    divided by its norm, over the monomials ``W(x)``, x in Z_l^(2n), of
    each factorization d = l^n (smallest l first; see :mod:`quditkit.weyl`).
    A seed reaches W(x) when its component along W(x) has norm above
    ``tol``; the support S0 is every monomial some seed reaches.  The seeds
    span every matrix of the mode supported on S0 when S0 leaves out the
    identity, holds ``-x`` with every x in real mode, and their
    coefficients on S0 have rank |S0| (the |S0|-th singular value exceeds
    ``tol``; the decomposition is an isometry, so this is their rank as
    matrices).  Each seed must also lie within ``tol`` in norm of the span
    of the S0 monomials: a part spread over several monomials, each
    component below ``tol``, can exceed it.  Since ``[W(x), W(y)]`` is a
    nonzero multiple of ``W(x + y)`` exactly when the symplectic form of x
    and y is nonzero mod l, the closure is then decided on integer codes
    (the ``"monomial"`` engine).  Otherwise the seeds are orthonormalized
    through :func:`orthonormal_extend` (raw trace inner product, so
    duplicates and dependent directions drop out) and the dense sweep below
    runs (the ``"dense"`` engine).  :attr:`ClosureResult.engine` reports
    which ran.

    Orthonormalized seeds would give the same choice in exact arithmetic:
    seed i reaches new monomials only through its part outside the span of
    the seeds before it, so the reach order is the same too.  The two can
    differ only at the edge of ``tol`` and for nearly dependent seeds,
    whose small Gram-Schmidt residual magnifies rounding into components
    above ``tol``: two seeds spanning W(x) and W(y) that differ by 1e-8
    went to the dense engine that way.

    Both engines run the same schedule, :func:`_run_rounds`.  Each round
    sweeps every element added in the previous round (the frontier), in
    order, against the elements present when that element's sweep began,
    less the frontier elements before it, whose pairs an earlier sweep of
    the same round already formed with the opposite sign.  The run stops
    when a round adds nothing or the target dimension d^2 - 1 is reached,
    and ``rounds`` counts the rounds.  The dense engine sweeps basis
    matrices and inserts new ``[a, b] = a@b - b@a`` directions.  The
    monomial engine sweeps monomial codes, seeded in the order the seeds
    first reach them, and inserts ``x + y`` when it is new and the
    symplectic form is nonzero; in real mode it inserts ``-(x + y)`` right
    after, since an anti-Hermitian matrix with a component along ``W(z)``
    has one along ``W(-z)``.  When every seed is one monomial, as in
    complex mode for phase-times-monomial inputs, the dense engine accepts
    those same monomials in the same order and the two count the same
    rounds.  A real-mode dense element mixes several pairs {z, -z}, and a
    cancellation among them can delay a direction by a round, so there the
    counts can differ; they agree on every named set with d <= 16.
    Processing order is deterministic, so identical inputs yield identical
    bases.

    The dense engine stops early.  The algebra generated by a set S is
    spanned by the right-nested brackets ``[s1, [s2, ... sk]]``, s_i in S,
    so it is the smallest subspace that holds S and that every ``[s, .]``,
    s in S, maps into itself.  After a sweep that adds nothing, if the
    basis grew since the last such check, the engine forms ``[b_s, b_j]``
    for every seed element b_s (the orthonormalized seeds span S) and every
    basis element b_j; when none passes the screen's first pass below, the
    span is the algebra and no later sweep can add to it.  The run then
    stops with the rounds the full schedule counts: r + 1 if the current
    round r grew, r otherwise, and the same :class:`NonConvergenceError`
    if r + 1 passes ``max_rounds``.  A check that succeeds screens as many
    commutators as one sweep per seed element; the newest elements go first,
    so one that fails usually stops in its first block.  A real-mode 12+12
    block pair (287 of 575) reaches its dimension at its 8th sweep and now
    stops after the 9th; the full schedule runs 287.  The monomial engine's
    sweeps are integer operations and run in full.

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
    a time.  In real mode every element is anti-Hermitian, so a commutator
    ``[a, b] = ab - (ab)^H`` costs one complex product, and the screen and
    admission run in real arithmetic on d^2 real coordinates per matrix,
    which keep the trace inner product.  The basis matrices are decoded
    from them, exactly anti-Hermitian: the Hermitian part of a seed, up to
    the 1e-11 a hand-built :class:`GeneratorSet` may carry, is dropped.

    The monomial engine's basis is built from the reached monomials, in
    the order reached: ``W(x) / sqrt(d)`` in complex mode; in real mode the
    two anti-Hermitian combinations ``(W - W*)`` and ``i (W + W*)`` of
    ``W = W(x)`` for each pair {x, -x}, normalized, and the one nonzero
    combination ``(W - W*) + i (W + W*)`` when x = -x.  It spans the space
    the dense engine's basis spans, but is a different basis of it.  It is
    not formed: :attr:`ClosureResult.basis` builds each element when asked
    for it.  A sweep costs O(d^2) integer operations, O(d^4) for a
    universal set, in O(d^2) memory.

    ``tol`` must be finite and positive (:class:`ValueError` otherwise).
    Raises :class:`NonConvergenceError` when ``max_rounds`` is exhausted
    with growth still pending (default cap: target dimension + 2, which an
    honestly converging run can never hit).
    """
    max_rounds = _round_cap(gen_set, max_rounds, tol)
    seeds, norms = _kept_seeds(gen_set, tol)
    found = _monomial_support(seeds, norms, gen_set.dim, gen_set.mode, tol)
    if found is None:
        return _dense_sweep(_seed(seeds, gen_set, tol), max_rounds)
    return _monomial_closure(*found, gen_set.mode, max_rounds, tol)


def _dense_closure(
    gen_set: GeneratorSet,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> ClosureResult:
    """:func:`closure` on the dense engine whatever the input."""
    max_rounds = _round_cap(gen_set, max_rounds, tol)
    return _dense_sweep(_seed(_kept_seeds(gen_set, tol)[0], gen_set, tol), max_rounds)


def _kept_seeds(gen_set: GeneratorSet, tol: float) -> Tuple[List[np.ndarray], np.ndarray]:
    """The inputs whose norm exceeds ``tol`` times the largest, and their norms."""
    norms = np.array([np.linalg.norm(m) for m in gen_set.matrices])
    kept = norms > tol * norms.max()
    return [m for m, keep in zip(gen_set.matrices, kept) if keep], norms[kept]


def _seed(seeds: Sequence[np.ndarray], gen_set: GeneratorSet, tol: float) -> "_BasisBuilder":
    """The dense engine's basis builder holding the kept ``seeds``."""
    d = gen_set.dim
    builder = _BasisBuilder(d, tol, gen_set.mode == REAL_ANTIHERMITIAN)
    for m in seeds:
        # Traceless commutators never leave a (d^2 - 1)-dimensional space, but
        # a GeneratorSet built by hand may also carry the identity direction.
        if builder.size == d * d:
            break  # the basis already spans every d x d matrix
        builder.offer(m)
    return builder


def _round_cap(gen_set: GeneratorSet, max_rounds: Optional[int], tol: float) -> int:
    """The round cap, after the checks every closure makes, in order."""
    if not gen_set.matrices:
        raise ValueError("generator set is empty")
    _check_tolerance(tol)
    d = gen_set.dim
    return d * d + 1 if max_rounds is None else max_rounds  # default: the target dimension + 2


def _dense_sweep(builder: "_BasisBuilder", max_rounds: int) -> ClosureResult:
    target = builder.d * builder.d - 1
    closed = functools.partial(builder.closed, builder.size)  # the seeds lead the basis
    rounds = _run_rounds(builder.size, builder.sweep, target, max_rounds, closed)
    return _result(builder.basis(), target, rounds, builder.tol, "dense")


def _run_rounds(
    size: int,
    sweep: Callable[[int, int], int],
    target: int,
    max_rounds: int,
    closed: Optional[Callable[[], bool]] = None,
) -> int:
    """Run the round schedule of :func:`closure` on ``size`` elements; return the rounds run.

    ``sweep(i, frontier_start)`` adds the new directions among the pairs of
    element ``i`` (see :func:`closure`) and returns the size after them.

    ``closed()``, if given, tells whether no later sweep can add anything.
    It is asked only after a sweep that added nothing, and only when the
    size grew since it was last asked (or since the start).  When it is
    true the schedule stops with the rounds the full schedule would count:
    the current round r runs to its end adding nothing, and if it grew,
    round r + 1 sweeps its new elements and adds nothing, so the count is
    r + 1 if round r grew and r otherwise.  If r + 1 would pass
    ``max_rounds``, the full schedule's :class:`NonConvergenceError` is
    raised, with the same text.
    """
    rounds = 0
    frontier_start = 0
    checked = size
    while frontier_start < size < target:
        if rounds == max_rounds:
            raise _non_convergence(max_rounds, size, target)
        rounds += 1
        frontier_end = size
        for i in range(frontier_start, frontier_end):
            before = size
            size = sweep(i, frontier_start)
            if size == target:
                break
            if closed is not None and size == before and size > checked:
                checked = size
                if closed():
                    grew = size > frontier_end
                    if grew and rounds == max_rounds:
                        raise _non_convergence(max_rounds, size, target)
                    return rounds + grew
        frontier_start = frontier_end
    return rounds


def _non_convergence(max_rounds: int, size: int, target: int) -> NonConvergenceError:
    return NonConvergenceError(
        f"basis still growing after {max_rounds} rounds "
        f"(dimension {size} of {target}); revisit the tolerance"
    )


def _result(
    basis: Sequence[np.ndarray], target: int, rounds: int, tol: float, engine: str
) -> ClosureResult:
    return ClosureResult(
        achieved_dim=len(basis),
        target_dim=target,
        basis=basis,
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
    seeds: Sequence[np.ndarray], norms: np.ndarray, d: int, mode: str, tol: float
) -> Optional[Tuple[int, int, np.ndarray]]:
    """``(l, n, codes)`` when the ``seeds`` span all of their monomial support S0.

    ``codes`` lists S0 in the order the seeds first reach it, each seed's
    monomials by increasing code.  None when no factorization of d
    qualifies (see :func:`closure`).
    """
    for l, n in _factorizations(d):
        found = _first_reached(seeds, norms, l, n, tol)
        if found is None:
            continue
        codes, coefficients, outside = found
        if 0 in codes:
            continue
        if mode == REAL_ANTIHERMITIAN and not np.isin(_negated(l, n)[codes], codes).all():
            continue
        if np.min(np.linalg.svd(coefficients, compute_uv=False), initial=np.inf) <= tol:
            continue
        # A seed's part off its own monomials may lie along ones other seeds reach.
        if any(_off_support(seeds[i], norms[i], codes, l, n) > tol for i in np.flatnonzero(outside > tol)):
            continue
        return l, n, codes
    return None


def _off_support(seed: np.ndarray, norm: float, codes: np.ndarray, l: int, n: int) -> float:
    """The norm of the unit ``seed / norm``'s part off the monomials ``codes``,
    summed from its full decomposition."""
    table = _diagonal_coefficients(seed[_wrapped_diagonals(l, n)], l, n).reshape(-1)
    table[codes] = 0.0
    return float(np.linalg.norm(table) * np.sqrt(l**n) / norm)


def _first_reached(
    seeds: Sequence[np.ndarray], norms: np.ndarray, l: int, n: int, tol: float
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(codes, coefficients, outside)``: the seeds over the monomials they reach.

    A seed reaches W(x) when its component along W(x) has norm above
    ``tol`` times its norm (``norms``).  ``codes`` lists the reached
    monomials in first-reach order.  Row i of ``coefficients`` holds the
    unit seed ``seeds[i] / norms[i]`` along each ``W(x) / sqrt(d)``, zero
    where it does not reach x; ``outside[i]`` is the norm of the unit
    seed's part off the monomials it reaches, summed from that part's own
    entries and coefficients.  None as soon as the codes outnumber the seeds.

    The seeds' wrapped diagonals are gathered ``_SUPPORT_ROWS`` seeds at a
    time, which bounds the workspace, and a dense seed ends the search at
    its own block.  Only diagonals with an entry above the threshold are
    transformed: a coefficient is a mean of its diagonal's entries times
    roots of unity, so none of a skipped diagonal's can pass it.  A
    monomial seed has one or two such diagonals of d.
    """
    k, d = len(seeds), l**n
    rows, cols = _wrapped_diagonals(l, n)
    flat = rows * d + cols  # the same entries, as indices into a flattened matrix
    gathered = np.empty((min(k, _SUPPORT_ROWS), d, d), dtype=complex)
    member = np.zeros(d * d, dtype=bool)
    blocks, entries = [], []
    outside = np.zeros(k)
    for start in range(0, k, _SUPPORT_ROWS):
        stop = min(k, start + _SUPPORT_ROWS)
        for m, out in zip(seeds[start:stop], gathered):
            np.take(m.reshape(-1).astype(complex, copy=False), flat, out=out)
        diagonals = gathered[:stop - start].reshape(-1, d)
        # Row s * d + A is diagonal A of seed s, so the codes met run seed by
        # seed, each seed's in increasing order.  A component along W(x) has
        # norm |coefficient| * sqrt(d).
        norm = np.repeat(norms[start:stop], d)
        floor = norm * (tol / np.sqrt(d))
        magnitude = np.abs(diagonals)
        live = magnitude.max(axis=1) > floor * _SKIP_MARGIN
        # each diagonal's power off the reached monomials: all of a skipped one's
        power = np.einsum("ij,ij->i", magnitude, magnitude)
        table = _diagonal_coefficients(diagonals[live], l, n)
        magnitude = np.abs(table)
        above = magnitude > floor[live, None]
        magnitude[above] = 0.0
        power[live] = d * np.einsum("ij,ij->i", magnitude, magnitude)
        outside[start:stop] = np.sqrt(power.reshape(-1, d).sum(axis=1)) / norms[start:stop]
        live = np.flatnonzero(live)
        row, clock = np.nonzero(above)
        diagonal = live[row]
        met = (diagonal % d) * d + clock
        entries.append((start + diagonal // d, met, table[row, clock] * (np.sqrt(d) / norm[diagonal])))
        _, first = np.unique(met, return_index=True)
        met = met[np.sort(first)]
        met = met[~member[met]]
        member[met] = True
        blocks.append(met)
        if np.count_nonzero(member) > k:
            return None
    codes = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.intp)
    column = np.empty(d * d, dtype=np.intp)
    column[codes] = np.arange(len(codes))
    coefficients = np.zeros((k, len(codes)), dtype=complex)
    for seed, met, values in entries:
        coefficients[seed, column[met]] = values
    return codes, coefficients, outside


def _monomial_closure(
    l: int, n: int, seed_codes: np.ndarray, mode: str, max_rounds: int, tol: float
) -> ClosureResult:
    """The closure of the monomials ``seed_codes`` by index arithmetic (see :func:`closure`)."""
    d = l**n
    target = d * d - 1
    digits = _digits(l, 2 * n)  # row x: shift digits a, then clock digits b
    weights = l ** np.arange(2 * n - 1, -1, -1)
    neg = _negated(l, n) if mode == REAL_ANTIHERMITIAN else None
    position = np.empty(d * d, dtype=np.intp)  # scratch for _with_negations
    member = np.zeros(d * d, dtype=bool)
    codes = np.empty(target, dtype=np.intp)  # the identity, code 0, is never reached
    rows = np.empty((target, 2 * n), dtype=digits.dtype)  # the digits of each code
    size = len(seed_codes)
    codes[:size] = seed_codes
    rows[:size] = digits[seed_codes]
    member[seed_codes] = True

    def sweep(i: int, frontier_start: int) -> int:
        nonlocal size
        x = rows[i]
        # [W(x), W(y)] is a nonzero multiple of W(x + y) iff the symplectic
        # form a_y.b_x - b_y.a_x = y.Jx is nonzero mod l
        jx = np.concatenate((-x[n:], x[:n]))
        y = np.concatenate((rows[:frontier_start], rows[i + 1:size]))
        omega = (y @ jx) % l
        sums = ((x + y) % l) @ weights
        new = sums[(omega != 0) & ~member[sums]]
        if neg is not None and new.size:
            new = _with_negations(new, neg, position)
        member[new] = True
        codes[size:size + len(new)] = new
        rows[size:size + len(new)] = digits[new]
        size += len(new)
        return size

    rounds = _run_rounds(size, sweep, target, max_rounds)
    return _result(_MonomialBasis(l, n, codes[:size], mode), target, rounds, tol, "monomial")


def _with_negations(new: np.ndarray, neg: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Each pair {z, -z} met in ``new``, in order of first meeting, as z then -z.

    An anti-Hermitian matrix with a component along W(z) has one along
    W(-z), so real mode admits the two together; members stay closed under
    negation, so neither is a member yet.  The codes in ``new`` are
    distinct, so ``position`` (scratch, one entry per code) records where
    each is met, and z leads its pair unless -z is met before it.
    """
    order = np.arange(len(new))
    partner = neg[new]
    position[partner] = len(new)  # met after everything, unless in new
    position[new] = order
    lead = new[position[partner] >= order]
    pairs = np.stack((lead, neg[lead]), axis=1)
    keep = np.ones(pairs.shape, dtype=bool)
    keep[:, 1] = pairs[:, 1] != lead  # z = -z counts once
    return pairs[keep]


class _MonomialBasis(Sequence):
    """The monomial engine's basis (see :func:`closure`), each element built on request.

    ``codes`` (read-only) are the reached monomials in the order reached.
    Element i is ``a W + b W*`` for one monomial ``W``, written into a new
    (d, d) array each time it is indexed; a slice is a sequence of the same
    kind.
    """

    def __init__(self, l: int, n: int, codes: np.ndarray, mode: str):
        codes.setflags(write=False)
        self.l, self.n, self.codes, self.mode = l, n, codes, mode
        self._rows = range(len(codes))

    @functools.cached_property
    def _terms(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _monomial_terms(self.l, self.n, self.codes, self.mode)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            part = copy.copy(self)
            part._rows = self._rows[index]
            return part
        i = self._rows[index]  # raises IndexError out of range, as a tuple does
        lead, a, b = (t[i:i + 1] for t in self._terms)
        return _monomial_matrices(self.l, self.n, lead, a, b)[0]

    def __repr__(self) -> str:
        return f"_MonomialBasis(l={self.l}, n={self.n}, mode={self.mode!r}, len={len(self)})"


def _monomial_terms(
    l: int, n: int, codes: np.ndarray, mode: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lead, a, b)``: the orthonormal basis element i of the matrices of ``mode``
    spanned by the monomials ``codes`` is ``a[i] W + b[i] W*`` with ``W = W(lead[i])``.
    """
    d = l**n
    if mode == COMPLEX_TRACELESS:
        return codes, np.full(len(codes), 1 / np.sqrt(d)), np.zeros(len(codes))
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
    return lead, a, b


def _monomial_matrices(
    l: int, n: int, lead: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """The (k, d, d) stack of ``a[i] W + b[i] W*`` with ``W = W(lead[i])``, entry by entry."""
    d = l**n
    cols, values = _monomial_entries(l, n, lead)
    element, row = np.arange(len(lead))[:, None], np.arange(d)[None, :]
    basis = np.zeros((len(lead), d, d), dtype=complex)
    basis[element, row, cols] += a[:, None] * values
    basis[element, cols, row] += b[:, None] * values.conj()
    return basis


class _BasisBuilder:
    """The growing orthonormal basis of one closure run.

    The basis fills the leading rows of one complex (capacity, d, d) array
    that doubles when full, up to d^2 rows, so its memory follows the
    achieved dimension rather than d^2.  The screen keeps no buffers: each
    block of ``_SCREEN_ROWS`` commutators allocates a few ``_SCREEN_ROWS x
    d^2`` temporaries, freed when the block is done.

    In real mode (``real``) the sweeps run on d^2 real coordinates per
    element (see :meth:`_encode`), held in a second, (capacity, d^2) float64
    array.  The first sweep encodes the seeds; the elements admitted since
    are decoded into the complex rows in one scatter when the next sweep
    needs them, and all of them for the result, so every row multiplied or
    returned is exactly anti-Hermitian.
    """

    def __init__(self, d: int, tol: float, real: bool):
        self.d = d
        self.tol = tol
        self.real = real
        self.size = 0
        self.rows = np.empty((min(d * d, _SCREEN_ROWS), d, d), dtype=complex)
        self.coords = None  # real mode: the coordinates, from the first sweep on
        self.decoded = 0  # real mode: rows[:decoded] are decoded from coords

    def elements(self) -> np.ndarray:
        return self.rows[: self.size]

    def basis(self) -> Tuple[np.ndarray, ...]:
        """The basis matrices, each a new array."""
        self._sync()
        return tuple(self.elements().copy())

    def _flat(self) -> np.ndarray:
        """The rows the screen projects on: the coordinates in real mode, else the matrices."""
        return self.rows.reshape(len(self.rows), -1) if self.coords is None else self.coords

    def offer(self, candidate: np.ndarray) -> None:
        """Add the part of ``candidate`` outside the span, if it is not negligible."""
        res = orthonormal_extend(self.elements(), candidate, tol=self.tol, normalizer=1.0)
        if res.accepted:
            self._append(res.new_element)

    def _append(self, element: np.ndarray) -> None:
        if self.coords is None:
            self.rows = _grown(self.rows, self.size, self.size + 1)
        else:
            self.coords = _grown(self.coords, self.size, self.size + 1)
        self._flat()[self.size] = element.reshape(-1)
        self.size += 1

    def _sync(self) -> None:
        """In real mode, encode the seeds on the first call, then decode the
        elements added since the last call into the complex rows."""
        if not self.real:
            return
        d, size = self.d, self.size
        if self.coords is None:
            self.upper = np.triu(np.ones((d, d), dtype=bool), 1)
            self.scale = np.where(np.eye(d, dtype=bool), 1.0, np.sqrt(2))
            self.coords = np.empty((len(self.rows), d * d))
            # A - A^H is 2A for an anti-Hermitian A, and twice the anti-Hermitian part of any A
            self._encode(0.5 * self.elements(), self.coords[:size])
        if self.decoded < size:
            self.rows = _grown(self.rows, self.decoded, size)
            self._decode(self.coords[self.decoded:size], self.rows[self.decoded:size])
            self.decoded = size

    def _encode(self, p: np.ndarray, out: np.ndarray) -> None:
        """Write the coordinates of ``p[i] - p[i]^H`` to ``out[i]``, for a (m, d, d) stack ``p``.

        The coordinates of an anti-Hermitian A are, as a d x d array read
        row-major: ``Im A_jj`` at (j, j), and for j < k ``sqrt(2) Re A_jk``
        at (j, k) and ``sqrt(2) Im A_jk`` at (k, j).  Their dot product is
        Re Tr(A^H B), all of Tr(A^H B) for anti-Hermitian A and B.
        """
        out = out.reshape(p.shape)
        re, im = p.real, p.imag
        np.add(im, im.transpose(0, 2, 1), out=out)
        np.copyto(out, re - re.transpose(0, 2, 1), where=self.upper)
        out *= self.scale

    def _decode(self, coords: np.ndarray, out: np.ndarray) -> None:
        """Write the anti-Hermitian matrices with ``coords`` (see :meth:`_encode`) to ``out``."""
        w = coords.reshape(out.shape) / self.scale
        wt = w.transpose(0, 2, 1)
        re, im = out.real, out.imag
        np.multiply(w, self.upper, out=re)
        np.negative(wt, out=re, where=self.upper.T)
        np.copyto(im, w)
        np.copyto(im, wt, where=self.upper)

    def sweep(self, i: int, frontier_start: int) -> int:
        """Add the new directions among the commutators of element ``i``; return the size.

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
        The sweep stops once the basis reaches the target dimension d^2 - 1.
        """
        self._sync()
        n = self.size
        target = self.d * self.d - 1
        for lo, hi in ((0, frontier_start), (i + 1, n)):
            for start in range(lo, hi, _SCREEN_ROWS):
                if self._sweep_block(i, start, min(hi, start + _SCREEN_ROWS), target):
                    return self.size
        return self.size

    def _sweep_block(self, i: int, start: int, stop: int, target: int) -> bool:
        """Screen and admit ``[b_i, b_j]`` for ``start <= j < stop``; True once at ``target``."""
        k = self.size
        resid, norms = self._screen(i, start, stop)
        if not len(norms):
            return False
        for s, norm in zip(_project(resid, self._flat()[:k]), norms):
            self.admit(s, norm, k)
            if self.size == target:
                return True
        return False

    def _screen(self, i: int, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(residuals, norms)`` of the ``[b_i, b_j]``, ``start <= j < stop``, that
        pass the first screening pass (see :meth:`sweep`), in order."""
        a = self.rows[i]
        block = self.rows[start:stop]
        if self.real:
            # [a, b] = ab - (ab)^H for anti-Hermitian a and b
            comm = np.empty((stop - start, self.d * self.d))
            self._encode(a @ block, comm)
        else:
            comm = (a @ block - block @ a).reshape(stop - start, -1)
        norms = _row_norms(comm)
        live = norms > self.tol
        resid, norms = comm[live], norms[live]
        if len(norms):
            resid = _project(resid, self._flat()[:self.size])
            keep = _row_norms(resid) > self.tol * norms
            resid, norms = resid[keep], norms[keep]
        return resid, norms

    def closed(self, seeds: int) -> bool:
        """Whether the span is closed under ``[b_s, .]`` for the first ``seeds`` elements.

        The first ``seeds`` elements span the seeds S, and the algebra S
        generates is the smallest subspace holding S that every ``[s, .]``,
        s in S, maps into itself.  So when no ``[b_s, b_j]`` passes the
        first screening pass, the span is that algebra and no later sweep
        admits anything.  The partners j go newest first, in blocks of
        ``_SCREEN_ROWS``, each against every seed, and the check stops at
        the first commutator that passes.
        """
        self._sync()
        for stop in range(self.size, 0, -_SCREEN_ROWS):
            for s in range(seeds):
                if len(self._screen(s, max(0, stop - _SCREEN_ROWS), stop)[1]):
                    return False
        return True

    def admit(self, residual: np.ndarray, norm: float, k: int) -> None:
        """Add a screened commutator if its residual exceeds ``tol * norm``.

        ``residual`` (flat, overwritten) is already orthogonal to the first
        ``k`` elements; two passes project it against those added since,
        and the test is the one :func:`orthonormal_extend` applies.
        """
        added = self._flat()[k:self.size]
        for _ in range(2):
            residual -= (added @ residual.conj()).conj() @ added
        rnorm = np.linalg.norm(residual)
        if rnorm > self.tol * norm:
            self._append(residual / rnorm)


def _project(resid: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """One block Gram-Schmidt pass: ``resid - (resid B^H) B`` with B the rows of ``flat``."""
    # R B^H == conj(conj(R) B^T), which spares a conjugated copy of B
    return resid - np.conj(np.conj(resid) @ flat.T) @ flat


def _grown(array: np.ndarray, filled: int, needed: int) -> np.ndarray:
    """``array`` if it has ``needed`` rows, else a copy of its first ``filled`` rows
    with room for twice as many rows, or ``needed`` if more, but no more rows
    than a row has entries: that many orthonormal rows span every row."""
    if needed <= len(array):
        return array
    rows = min(array[0].size, max(needed, 2 * len(array)))
    grown = np.empty((rows,) + array.shape[1:], dtype=array.dtype)
    grown[:filled] = array[:filled]
    return grown


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Frobenius norm of each row of a C-contiguous real or complex array, without temporaries."""
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
    gen = prepare_generators(matrices, mode)
    # prepare_generators has checked that every matrix has the dimension of the first
    if gen.dim != l**n:
        raise ValueError(f"matrix 0 has dimension {gen.dim}, expected l^n = {l**n}")
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
