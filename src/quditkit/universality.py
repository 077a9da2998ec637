"""Lie-algebra closure engine deciding universality of generator sets.

A set of matrices is universal when linear combinations and repeated
commutators span the full traceless algebra: dimension d^2 - 1 over the
reals for anti-Hermitian spans (the su(d) case) and over the complex
numbers for unconstrained traceless spans (the sl(d, C) case).  Both modes
run the same arithmetic: within the anti-Hermitian subspace, complex and
real linear dependence coincide, so one orthonormalization kernel counts
dimensions correctly for either field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

# closure does not call hs_norm; importing it keeps universality.hs_norm bound
# for perfbench's traced run, which wraps that binding by name.
from .linalg import hs_norm  # noqa: F401
from .linalg import _check_tolerance, as_matrix, dagger, matrix_exp, max_abs, orthonormal_extend

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
    """Outcome of a closure run; ``universal`` iff the full target dimension was reached."""

    achieved_dim: int
    target_dim: int
    basis: Tuple[np.ndarray, ...]
    rounds: int
    tolerance_used: float
    universal: bool


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
    inner product, so duplicates and dependent directions drop out).  Each
    round then sweeps every element added in the previous round (the
    frontier), in order, against the basis as it stood when that element's
    sweep began, inserting new ``[a, b] = a@b - b@a`` directions in a fixed
    order; the run stops when a round adds nothing or the target dimension
    d^2 - 1 is reached.  A sweep skips the pairs an earlier sweep of the
    same round already formed with the opposite sign.  Processing order is
    deterministic, so identical inputs yield identical bases.

    Commutators whose norm does not exceed ``tol`` are treated as zero,
    which keeps floating-point dust from inflating the rank.  The rest are
    screened in blocks by one block Gram-Schmidt pass against the basis:
    one whose residual is at most ``tol`` times its norm is rejected there.
    The survivors get a second pass, are orthonormalized in order against
    the elements accepted earlier in their block, and are accepted under
    the test :func:`orthonormal_extend` applies, so the accepted sequence
    is the one a candidate-by-candidate sweep gives.  Screening is the
    dominant cost, O(d^8) for a universal set (O(d^4) candidates at O(d^4)
    each), run as BLAS block products over a fixed number of candidates at
    a time.

    ``tol`` must be finite and positive (:class:`ValueError` otherwise).
    Raises :class:`NonConvergenceError` when ``max_rounds`` is exhausted
    with growth still pending (default cap: target dimension + 2, which an
    honestly converging run can never hit).
    """
    if not gen_set.matrices:
        raise ValueError("generator set is empty")
    _check_tolerance(tol)
    d = gen_set.dim
    target = d * d - 1
    if max_rounds is None:
        max_rounds = target + 2
    builder = _BasisBuilder(d, tol)
    for m in gen_set.matrices:
        # Traceless commutators never leave a (d^2 - 1)-dimensional space, but
        # a GeneratorSet built by hand may also carry the identity direction.
        if builder.size == d * d:
            break  # the basis already spans every d x d matrix
        builder.offer(m)

    rounds = 0
    frontier_start = 0
    while frontier_start < builder.size < target:
        if rounds == max_rounds:
            raise NonConvergenceError(
                f"basis still growing after {max_rounds} rounds "
                f"(dimension {builder.size} of {target}); revisit the tolerance"
            )
        rounds += 1
        frontier_end = builder.size
        for i in range(frontier_start, frontier_end):
            builder.sweep(i, frontier_start, target)
            if builder.size == target:
                break
        frontier_start = frontier_end

    achieved = builder.size
    return ClosureResult(
        achieved_dim=achieved,
        target_dim=target,
        basis=tuple(builder.elements().copy()),
        rounds=rounds,
        tolerance_used=tol,
        universal=achieved == target,
    )


class _BasisBuilder:
    """The growing orthonormal basis of one closure run and its screening buffers.

    The basis fills the leading rows of one (capacity, d, d) array that
    doubles when full, up to d^2 rows, so its memory follows the achieved
    dimension rather than d^2.  The buffers hold one block of
    ``_SCREEN_ROWS`` commutators and are reused for every block.
    """

    def __init__(self, d: int, tol: float):
        self.d = d
        self.tol = tol
        self.size = 0
        self.rows = np.empty((min(d * d, _SCREEN_ROWS), d, d), dtype=complex)
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
