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
from .linalg import _check_tolerance, as_matrix, dagger, matrix_exp, max_abs, orthonormal_extend
from .vocabulary import COMPLEX_TRACELESS, MODES, REAL_ANTIHERMITIAN
from .weyl import (
    _BuiltOnce,
    _WeylTerms,
    _code_digits,
    _decompose,
    _diagonal_coefficients,
    _monomial_entries,
    _negation,
    _nu_powers,
    _weyl_adjoint,
    _wrapped_diagonals,
)

__all__ = [
    "REAL_ANTIHERMITIAN",
    "COMPLEX_TRACELESS",
    "MODES",
    "GeneratorSet",
    "ClosureResult",
    "traceless_project",
    "hermitian_split",
    "prepare_generators",
    "closure",
    "is_universal",
    "gate_from_generator",
]

_ANTIHERMITIAN_TOL = 1e-11
# Commutators screened per block; each block allocates a few _SCREEN_ROWS x d^2
# temporaries whatever the basis size.
_SCREEN_ROWS = 32
# Seeds decomposed over the Weyl monomials per block, for the same reason.
_SUPPORT_ROWS = 8
# Entries prepared per block (at least one matrix), for the same reason.
_PREPARE_ENTRIES = 1 << 12
# The support search skips a diagonal whose entries are all at most its
# threshold times this; the margin is far above the FFT's rounding, so the
# skip is exact in floating point too.
_SKIP_MARGIN = 1 - 1e-12
# The term path decides only when every quantity it compares with tol differs
# from tol by more than this: far above the rounding of the matrix path's
# projection and transforms, which compare the same quantities of the matrices.
_TERM_MARGIN = 1e-12


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
    """Preprocessed input to :func:`closure`; build via :func:`prepare_generators`.

    A hand-built set is checked one matrix at a time, in order: shape (dim, dim),
    finite entries, and in real mode ``max |m + m*| <= 1e-11``; the first failure
    raises :class:`ValueError`.  Prepared sets skip the checks in both modes.
    ``matrices`` is a tuple, except in a set prepared from Weyl terms, where
    it is a sequence whose matrices are prepared once, on the first access to
    any of them, and are read-only (see :func:`prepare_generators`).
    """

    name: str
    dim: int
    matrices: Sequence[np.ndarray]
    mode: str
    _per_input = 1  # consecutive matrices per input; errors name the input
    _terms = None  # prepared from Weyl terms: the terms, which closure reads (see prepare_generators)

    @classmethod
    def _prepared(
        cls, name: str, dim: int, matrices: Sequence[np.ndarray], mode: str, terms: Optional[_WeylTerms] = None
    ) -> "GeneratorSet":
        """A set :func:`prepare_generators` made valid by construction; no checks run, in either mode."""
        prepared = object.__new__(cls)
        per_input = 1 + (mode == REAL_ANTIHERMITIAN)  # real mode splits each input in two
        vars(prepared).update(name=name, dim=dim, matrices=matrices, mode=mode, _per_input=per_input, _terms=terms)
        return prepared

    def __post_init__(self):
        _check_mode(self.mode)
        shape = (self.dim, self.dim)
        real = self.mode == REAL_ANTIHERMITIAN
        with np.errstate(invalid="ignore"):  # inf - inf in m + m* of a non-finite m
            for idx, m in enumerate(self.matrices):
                if m.shape != shape:
                    raise ValueError(f"matrix {idx} has shape {m.shape}, expected {shape}")
                if real and m.size and max_abs(m + m.conj().T) <= _ANTIHERMITIAN_TOL:
                    continue  # m + m* is finite only where m is, so m passes both checks
                as_matrix(m)  # raises for non-finite entries
                if real:
                    raise ValueError(
                        f"matrix {idx} is not anti-Hermitian; real mode requires "
                        "preprocessed input (see prepare_generators)"
                    )


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of a closure run; ``universal`` iff the full target dimension was reached.

    ``engine`` names the engine that ran, ``"monomial"`` or ``"dense"``
    (see :func:`closure`).  ``basis`` holds ``achieved_dim`` orthonormal
    (d, d) matrices: a tuple from the dense engine; from the monomial
    engine, a read-only :class:`~collections.abc.Sequence` (``len``,
    indexing, slicing, iteration) that builds each matrix on request, so
    the result holds O(``achieved_dim``) memory at any dimension: the
    codes reached, in an array of at most twice as many entries.  A dense
    basis is a tuple of views of one (capacity, d, d) array, the rows the
    engine grew, so that array and its growth slack live as long as the
    result: at most max(32, 2 * ``achieved_dim``) rows and at most d^2.  A
    monomial basis is orthonormal to rounding.  A dense basis is
    orthonormal to the accuracy of its Gram-Schmidt steps: ``max |F^H F -
    I|`` over the flattened basis F is at most 2.1e-14 on the named sets
    with d <= 16, but an element admitted with a small relative residual
    keeps less: 3.9e-11 on a real-mode block pair of su(5) + su(6) in the
    tests.
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

    Each block of ``_PREPARE_ENTRIES`` entries (at least one matrix) is cast
    to complex and processed with the elementwise arithmetic of
    :func:`traceless_project` and :func:`hermitian_split`, so the output
    equals theirs bit for bit; real mode puts each input's pair in place of
    the input.  Beyond the inputs, the call holds the k or, in real mode, 2k
    matrices it returns and one block of temporaries.  The outputs are
    square and finite, and real-mode ones exactly anti-Hermitian, so in
    either mode the set skips the checks a hand-built :class:`GeneratorSet`
    gets.  An unknown ``mode`` raises ``ValueError`` before any input is
    read; so does a non-finite input, or an overflow to a non-finite entry.

    A named set (:func:`~quditkit.clifford.named_generator_set`) whose l is
    the smallest base of d = l^n gives a term-backed set: no matrix is built
    here, :func:`closure` reads the inputs' Weyl terms, and ``matrices`` are
    prepared as above, once, on the first access to any of them.  They are
    read-only, like the named set's own, so the matrices that :func:`closure`
    falls back to when the term path declines cannot disagree with the
    terms.  A set whose l is a perfect power (4, 8, 9, ...) is prepared from
    its matrices, since the support search tries the smallest base first and
    may decide it there: ``[V, V^3]`` of the l=4 clock V reaches the l=2
    codes [2, 3].
    """
    _check_mode(mode)
    if isinstance(matrices, _WeylTerms) and _factorizations(d := matrices.l**matrices.n)[0][0] == matrices.l:
        terms, size = matrices, len(matrices) * (1 + (mode == REAL_ANTIHERMITIAN))
        prepared = _BuiltOnce(size, lambda: prepare_generators(list(terms), mode).matrices)
        return GeneratorSet._prepared(name, d, prepared, mode, terms=terms)
    arrays = _square_inputs(matrices)
    k, d = len(arrays), arrays[0].shape[0]
    real = mode == REAL_ANTIHERMITIAN
    out = np.empty((k, 1 + real, d, d), dtype=complex)
    step = max(1, _PREPARE_ENTRIES // (d * d))
    scratch = np.empty((min(k, step), d, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    # A non-finite entry stays non-finite; _check_finite alone reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, k, step):
            block = out[start:start + step]
            # the trace term goes where nothing reads it later
            if real:
                m, spare = scratch[:len(block)], block[:, 1]
            else:
                m, spare = block[:, 0], scratch[:len(block)]
            np.stack(arrays[start:start + step], out=m, casting="unsafe")  # as np.asarray(a, dtype=complex) casts
            traces = np.trace(m, axis1=1, axis2=2) / d
            m -= np.multiply(traces[:, None, None], eye, out=spare)
            if real:
                np.conjugate(m.transpose(0, 2, 1), out=block[:, 1])
                np.add(m, block[:, 1], out=block[:, 0])
                block[:, 0] *= 1j
                np.subtract(m, block[:, 1], out=block[:, 1])
    # i(M + M*) and M - M* are exactly anti-Hermitian; only a non-finite entry can fail the checks
    _check_finite(out)
    return GeneratorSet._prepared(name, d, tuple(out.reshape(-1, d, d)), mode)


def _check_finite(stack: np.ndarray) -> None:
    """Raise :func:`as_matrix`'s error for a non-finite input or overflow."""
    parts = stack.view(np.float64)
    if not (np.isfinite(parts.max()) and np.isfinite(parts.min())):
        raise ValueError("matrix contains non-finite entries")


def _square_inputs(matrices: Iterable[np.ndarray]) -> List[np.ndarray]:
    """The inputs as arrays of one square shape, or the error the per-matrix checks
    raise first; entries are left to :func:`_check_finite`.

    A numeric array keeps its dtype until its block is cast; anything else is
    converted to complex here, as :func:`as_matrix` converts it, so an input it
    refuses raises its error.
    """
    arrays = [
        np.asarray(m) if isinstance(m, np.ndarray) and m.dtype.kind in "biufc" else np.asarray(m, dtype=complex)
        for m in matrices
    ]
    if not arrays:
        raise ValueError("generator set is empty")
    shape = arrays[0].shape
    if len(shape) == 2 and shape[0] == shape[1] >= 1 and all(a.shape == shape for a in arrays):
        return arrays
    dims = [as_matrix(m).shape[0] for m in arrays]
    idx = next(i for i, dim in enumerate(dims) if dim != dims[0])
    raise ValueError(f"matrix {idx} has dimension {dims[idx]}, expected {dims[0]}")


def closure(gen_set: GeneratorSet, *, tol: float = 1e-9) -> ClosureResult:
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

    A set prepared from a named set's Weyl terms (see
    :func:`prepare_generators`; l is then the smallest base of d, the first
    factorization tried) is decided from the terms alone when it can be:
    the seeds' norms, coefficients and parts off any monomials are read
    exactly from the inputs' phases and codes, and the same checks run on
    them, with no matrix formed.  The matrices are prepared and decide as
    above when a check fails there (an input along the identity fails one,
    although its projection would remove it), or when a compared quantity
    lies within 1e-12 of ``tol``, where their rounding could decide it the
    other way.

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
    round r grew, r otherwise.  A check that succeeds screens as many
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
    universal set.  Its memory is one byte per code, to mark the members,
    and O(n) words per code reached.

    ``tol`` must be finite and at least machine epsilon (:class:`ValueError` otherwise).
    An input whose Frobenius norm overflows to infinity, possible once its
    entries reach about 1e154, raises :class:`ValueError` naming its input index.
    Every round but the last adds an element, so a run ends within d^2 - 1
    rounds (see :func:`_run_rounds`).
    """
    _check_closure(gen_set, tol)
    found = None if gen_set._terms is None else _term_support(gen_set._terms, gen_set.mode, tol)
    if found is None:
        seeds, norms = _kept_seeds(gen_set, tol)
        found = _monomial_support(seeds, norms, gen_set.dim, gen_set.mode, tol)
        if found is None:
            return _dense_sweep(_seed(seeds, gen_set, tol))
    return _monomial_closure(*found, gen_set.mode, tol)


def _dense_closure(gen_set: GeneratorSet, *, tol: float = 1e-9) -> ClosureResult:
    """:func:`closure` on the dense engine whatever the input."""
    _check_closure(gen_set, tol)
    return _dense_sweep(_seed(_kept_seeds(gen_set, tol)[0], gen_set, tol))


def _kept_seeds(gen_set: GeneratorSet, tol: float) -> Tuple[List[np.ndarray], np.ndarray]:
    """The inputs whose norm exceeds ``tol`` times the largest, and their norms;
    ``ValueError`` naming the first input whose norm overflows."""
    with np.errstate(over="ignore"):
        norms = np.array([np.linalg.norm(m) for m in gen_set.matrices])
    if np.isinf(norms.max()):
        raise ValueError(f"matrix {np.argmax(norms) // gen_set._per_input} has a norm that overflows")
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


def _check_closure(gen_set: GeneratorSet, tol: float) -> None:
    """The checks every closure makes, in order."""
    if not gen_set.matrices:
        raise ValueError("generator set is empty")
    _check_tolerance(tol)
    if tol < np.finfo(float).eps:  # below it, rounding dust passes for new directions
        raise ValueError(f"tol must be at least machine epsilon, got {tol!r}")


def _dense_sweep(builder: "_BasisBuilder") -> ClosureResult:
    target = builder.d * builder.d - 1
    closed = functools.partial(builder.closed, builder.size)  # the seeds lead the basis
    rounds = _run_rounds(builder.size, builder.sweep, target, closed)
    return _result(builder.basis(), target, rounds, builder.tol, "dense")


def _run_rounds(
    size: int,
    sweep: Callable[[int, int], int],
    target: int,
    closed: Optional[Callable[[], bool]] = None,
) -> int:
    """Run the round schedule of :func:`closure` on ``size`` elements; return the rounds run.

    ``sweep(i, frontier_start)`` adds the new directions among the pairs of
    element ``i`` (see :func:`closure`) and returns the size after them.
    The schedule needs no cap: a round that adds nothing leaves an empty
    frontier and ends the run, and the run also ends once the size reaches
    ``target``, so every round but the last adds an element and a run from
    ``size >= 1`` ends within ``target - size + 1 <= target`` rounds.

    ``closed()``, if given, tells whether no later sweep can add anything.
    It is asked only after a sweep that added nothing, and only when the
    size grew since it was last asked (or since the start).  When it is
    true the schedule stops with the rounds the full schedule would count:
    the current round r runs to its end adding nothing, and if it grew,
    round r + 1 sweeps its new elements and adds nothing, so the count is
    r + 1 if round r grew and r otherwise.
    """
    rounds = 0
    frontier_start = 0
    checked = size
    while frontier_start < size < target:
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
                    return rounds + (size > frontier_end)
        frontier_start = frontier_end
    return rounds


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


def _monomial_support(
    seeds: Sequence[np.ndarray], norms: np.ndarray, d: int, mode: str, tol: float
) -> Optional[Tuple[int, int, np.ndarray]]:
    """``(l, n, codes)`` of the first factorization of d at which the ``seeds`` span all
    of their monomial support, listed as :func:`_reach_support` lists it; None if none."""
    for l, n in _factorizations(d):
        reach = _first_reached(seeds, norms, l, n, tol)
        found = None if reach is None else _reach_support(reach, l, n, mode, tol)
        if found is not None:
            return l, n, found[0]
    return None


def _reach_support(
    reach: Tuple[tuple, np.ndarray, Callable], l: int, n: int, mode: str, tol: float
) -> Optional[Tuple[np.ndarray, List[float]]]:
    """``(codes, compared)`` when the seeds of ``reach`` span all of their monomial support S0.

    ``reach`` is ``((seed, code, value), outside, off_support)``, entries in
    any order: unit seed ``seed[j]`` is ``value[j]`` along ``W(code[j]) /
    sqrt(d)``, a component of norm above ``tol``; ``outside[i]`` is the
    norm of unit seed i's part off its own entries, ``off_support(i,
    codes)`` its part off ``codes``.  ``codes`` lists S0 in first-reach
    order, seed by seed and each seed's by increasing code; ``compared``
    holds the :func:`_rank_margin` and each ``off_support`` measured.  None
    when a check of :func:`closure` fails.
    """
    (seed, met, values), outside, off_support = reach
    order = np.lexsort((met, seed))
    seed, met, values = seed[order], met[order], values[order]
    _, first, column = np.unique(met, return_index=True, return_inverse=True)
    codes = met[np.sort(first)]
    rows = np.zeros((len(outside), len(codes)), dtype=complex)
    rows[seed, np.argsort(np.argsort(first))[column]] = values  # each code's place in first-reach order
    compared = [_rank_margin(codes, rows, l, n, mode)]
    if compared[0] <= tol:
        return None
    # A seed's part off its own monomials may lie along ones other seeds reach.
    for i in np.flatnonzero(outside > tol):
        compared.append(off_support(i, codes))
        if compared[-1] > tol:
            return None
    return codes, compared


def _rank_margin(codes: np.ndarray, coefficients: np.ndarray, l: int, n: int, mode: str) -> float:
    """The |S0|-th singular value of the seeds' ``coefficients`` on S0 = ``codes``, or 0
    when the seeds are fewer than the codes, or S0 holds the identity or, in real mode,
    some x without -x (see :func:`closure`)."""
    if len(coefficients) < len(codes) or 0 in codes:
        return 0.0
    # the codes are distinct, so they hold -x with every x when negation permutes them
    negated = _negation(l, _code_digits(l, n, codes))[1]
    if mode == REAL_ANTIHERMITIAN and not np.array_equal(np.sort(negated), np.sort(codes)):
        return 0.0
    return float(np.min(np.linalg.svd(coefficients, compute_uv=False), initial=np.inf))


def _term_support(terms: _WeylTerms, mode: str, tol: float) -> Optional[Tuple[int, int, np.ndarray]]:
    """:func:`_monomial_support` of the set ``prepare_generators`` makes of ``terms``,
    read from the terms alone, at their own (l, n); None when it is not decided there.

    The prepared inputs are ``nu^e W(x)`` in complex mode and, in real mode,
    ``i(M + M*)`` and ``M - M*`` of ``M = nu^e W(x)``, with
    ``M* = nu^(-e - 2 a.b) W(-x)``, so their norms and coefficients follow
    exactly from the terms.  The threshold of :func:`_kept_seeds` selects
    the seeds, and :func:`_reach_support` checks their reach.  None, so
    that the matrices decide, when a check fails there (an input along the
    identity fails the first, although the projection the terms leave out
    would remove it), or when a compared quantity lies within
    ``_TERM_MARGIN`` of ``tol``, where the matrices' rounding could decide
    it the other way.
    """
    l, n = terms.l, terms.n
    codes, coefficients = _prepared_terms(terms, mode)
    size = np.sqrt(np.einsum("ij,ij->i", np.abs(coefficients), np.abs(coefficients)))  # norm / sqrt(d)
    ratio = size / size.max()
    kept = ratio > tol
    codes, unit = codes[kept], coefficients[kept] / size[kept, None]
    magnitude = np.abs(unit)
    reached = magnitude > tol
    off = np.where(reached, 0.0, magnitude)
    outside = np.sqrt(np.einsum("ij,ij->i", off, off))
    entries = np.nonzero(reached)[0], codes[reached], unit[reached]
    off_support = lambda i, support: float(np.linalg.norm(off[i][~np.isin(codes[i], support)]))  # noqa: E731
    found = _reach_support((entries, outside, off_support), l, n, mode, tol)
    if found is None:
        return None
    compared = np.concatenate((ratio, magnitude.ravel(), outside, found[1]))
    return None if np.min(np.abs(compared - tol)) <= _TERM_MARGIN else (l, n, found[0])


def _prepared_terms(terms: _WeylTerms, mode: str) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, coefficients)``, two (k, w) arrays: prepared input i is the sum over j of
    ``coefficients[i, j] W(codes[i, j])`` (see :func:`_term_support`).

    In real mode w = 2, the codes of x and -x; when x = -x the pair's
    coefficients are summed into the first, and the second is zero.
    """
    l, n, e, x = terms.l, terms.n, terms.exponents, terms.codes
    nu = _nu_powers(l)
    if mode == COMPLEX_TRACELESS:
        return x[:, None], nu[e][:, None]
    f, negated = _weyl_adjoint(l, n, (e, x))
    same = negated == x
    m, mh = nu[e], nu[f]
    plus = (1j * (m + np.where(same, mh, 0)), np.where(same, 0, 1j * mh))  # i(M + M*)
    minus = (m - np.where(same, mh, 0), np.where(same, 0, -mh))  # M - M*
    coefficients = np.stack((np.stack(plus, axis=1), np.stack(minus, axis=1)), axis=1)
    codes = np.repeat(np.stack((x, negated), axis=1), 2, axis=0)
    return codes, coefficients.reshape(-1, 2)


def _off_support(seed: np.ndarray, norm: float, codes: np.ndarray, l: int, n: int) -> float:
    """The norm of the unit ``seed / norm``'s part off the monomials ``codes``,
    summed from its full decomposition."""
    table = _decompose(seed, l, n).reshape(-1)
    table[codes] = 0.0
    return float(np.linalg.norm(table) * np.sqrt(l**n) / norm)


def _first_reached(
    seeds: Sequence[np.ndarray], norms: np.ndarray, l: int, n: int, tol: float
) -> Optional[Tuple[tuple, np.ndarray, Callable]]:
    """The reach of the unit seeds ``seeds[i] / norms[i]``, as :func:`_reach_support` takes it.

    A seed reaches W(x) when its component along W(x) has norm above
    ``tol`` times its norm.  The entries run seed by seed, each seed's by
    increasing code.  ``outside`` is summed from the entries and
    coefficients of each unit seed's part off the monomials it reaches,
    and :func:`_off_support` measures a part off other codes.  None as soon
    as the codes reached outnumber the seeds.

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
    reached = np.empty(0, dtype=np.intp)
    entries = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0, dtype=complex))]
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
        reached = np.union1d(reached, met)
        if len(reached) > k:
            return None
    off_support = lambda i, codes: _off_support(seeds[i], norms[i], codes, l, n)  # noqa: E731
    return tuple(map(np.concatenate, zip(*entries))), outside, off_support


def _monomial_closure(l: int, n: int, seed_codes: np.ndarray, mode: str, tol: float) -> ClosureResult:
    """The closure of the monomials ``seed_codes`` by index arithmetic (see :func:`closure`);
    its arrays grow by :func:`_grown`, so memory follows the codes reached, not d^2."""
    d = l**n
    target = d * d - 1  # the identity, code 0, is never reached
    weights = l ** np.arange(2 * n - 1, -1, -1)
    member = np.zeros(d * d, dtype=bool)
    codes = np.array(seed_codes, dtype=np.intp)
    rows = _code_digits(l, n, codes)
    sums = np.empty_like(rows)
    size = len(codes)
    member[codes] = True

    def sweep(i: int, frontier_start: int) -> int:
        nonlocal codes, rows, sums, size
        x = rows[i]
        partners = frontier_start + size - (i + 1)
        sums = _grown(sums, 0, partners, target)
        z = sums[:partners]
        np.add(rows[:frontier_start], x, out=z[:frontier_start])
        np.add(rows[i + 1:size], x, out=z[frontier_start:])
        np.remainder(z, l, out=z)
        # [W(x), W(y)] is a nonzero multiple of W(x + y) iff the symplectic
        # form y.Jx, which is (x + y).Jx, is nonzero mod l
        jx = np.concatenate((-x[n:], x[:n]))
        sum_codes = z @ weights
        new = ((z @ jx) % l != 0) & ~member[sum_codes]
        if new.any():
            new_codes, new_rows = sum_codes[new], z[new]
            if mode == REAL_ANTIHERMITIAN:
                # an anti-Hermitian matrix with a component along W(z) has one along W(-z)
                minus_rows, minus = _negation(l, new_rows)
                take = _pairs(new_codes, minus)
                new_codes, new_rows = np.append(new_codes, minus)[take], np.concatenate((new_rows, minus_rows))[take]
            stop = size + len(new_codes)
            codes, rows = _grown(codes, size, stop, target), _grown(rows, size, stop, target)
            codes[size:stop], rows[size:stop] = new_codes, new_rows
            member[new_codes] = True
            size = stop
        return size

    rounds = _run_rounds(size, sweep, target)
    return _result(_MonomialBasis(l, n, codes[:size], mode), target, rounds, tol, "monomial")


def _pairs(codes: np.ndarray, negated: np.ndarray) -> List[int]:
    """Each pair {x, -x} met in the distinct ``codes``, in order of first meeting, as x then -x,
    given as indices into ``codes`` followed by ``negated``, the code of -x for each x.

    x = -x counts once.  A sweep admits each pair it meets, so a run loops once per code.
    """
    take, met = [], set()
    for j, (x, minus_x) in enumerate(zip(codes.tolist(), negated.tolist())):
        if x not in met:
            met.add(minus_x)
            take.append(j)
            if minus_x != x:
                take.append(len(codes) + j)
    return take


class _MonomialBasis(Sequence):
    """The monomial engine's basis (see :func:`closure`), each element built on request.

    ``codes`` (read-only) are the reached monomials in the order reached.
    Element i is ``a W + b W*`` for one monomial ``W``, written into a new
    (d, d) array each time it is indexed; a slice is a sequence of the same
    kind.  It does not build all its matrices at once, as ``weyl._BuiltOnce``
    does, since the result must hold O(``achieved_dim``) memory, not the basis.
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
    negated = _negation(l, _code_digits(l, n, codes))[1]
    take = np.array(_pairs(codes, negated), dtype=np.intp)
    second = take >= len(codes)
    first = take - len(codes) * second  # the index of each element's pair in codes
    lead = codes[first]
    # W - W* and i (W + W*) for a pair {x, -x}; when x = -x, W* = +-W and
    # their sum is the one nonzero combination
    a = np.where(second, 1j, 1.0) / np.sqrt(2 * d)
    b = np.where(second, 1j, -1.0) / np.sqrt(2 * d)
    alone = negated[first] == lead
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
    are decoded into the complex rows, ``_SCREEN_ROWS`` at a time, when the
    next sweep or the result needs them, so every row multiplied or
    returned is exactly anti-Hermitian.  Rows that must grow are decoded
    afresh, never copied, so old and new rows are never alive together.
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
        """The basis matrices as views of the rows, not copies.  The run drops
        the builder, and the views keep the rows' growth slack alive: at most
        max(``_SCREEN_ROWS``, 2 * size) rows, and at most d^2."""
        self._sync()
        return tuple(self.elements())

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
            self.rows = _grown(self.rows, self.size, self.size + 1, self.d * self.d)
        else:
            self.coords = _grown(self.coords, self.size, self.size + 1, self.d * self.d)
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
        if size > len(self.rows):
            # every row is a decode of its coordinates: drop them, then regrow
            rows = _capacity(self.rows, size, d * d)
            self.rows = None
            self.rows = np.empty((rows, d, d), dtype=complex)
            self.decoded = 0
        for start in range(self.decoded, size, _SCREEN_ROWS):
            stop = min(size, start + _SCREEN_ROWS)
            self._decode(self.coords[start:stop], self.rows[start:stop])
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


def _grown(array: np.ndarray, filled: int, needed: int, limit: int) -> np.ndarray:
    """``array`` if it has ``needed`` rows, else a copy of its first ``filled``
    rows with room for :func:`_capacity` rows."""
    if needed <= len(array):
        return array
    grown = np.empty((_capacity(array, needed, limit),) + array.shape[1:], dtype=array.dtype)
    grown[:filled] = array[:filled]
    return grown


def _capacity(array: np.ndarray, needed: int, limit: int) -> int:
    """Rows to grow a full ``array`` to: twice as many, or ``needed`` if more, but no more
    than ``limit``, all it can need (d^2 orthonormal rows span every (d, d) row)."""
    return min(limit, max(needed, 2 * len(array)))


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
