"""Dense complex linear algebra kernel shared by the operator modules.

Matrices are plain square numpy arrays with dtype ``complex128``.  The
helpers here validate shapes and finiteness once, so the higher-level
modules can assume well-formed input.  Every function is pure; nothing
mutates its arguments.  The package's one Gram-Schmidt pass, :func:`_project`,
and one orthonormalization step, :func:`_orthonormal_step`, act on flat rows
here; the closure engine and :func:`orthonormal_extend` call them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "as_matrix",
    "max_abs",
    "dagger",
    "hs_inner",
    "hs_norm",
    "matrix_exp",
    "ExtendResult",
    "orthonormal_extend",
]

# Term cap for the scaling-and-squaring series fallback.
_SERIES_MAX_TERMS = 64


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex matrix, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def max_abs(a) -> float:
    """Largest entry magnitude, the norm used for all residual reporting."""
    return float(np.max(np.abs(a)))


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def _resolve_normalizer(dim: int, normalizer: Optional[float]) -> float:
    if normalizer is None:
        return float(dim)
    normalizer = float(normalizer)
    if normalizer <= 0:
        raise ValueError(f"normalizer must be positive, got {normalizer}")
    return normalizer


def _check_tolerance(tol: float) -> None:
    # NaN fails both comparisons, so it is rejected along with inf, 0 and negatives
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def hs_inner(a, b, normalizer: Optional[float] = None) -> complex:
    """Trace inner product ``Tr(a @ b†) / normalizer``.

    The default normalizer is the matrix dimension, which makes the
    shift/clock monomial basis orthonormal.  Pass ``normalizer=1.0`` for the
    raw Frobenius pairing used by the closure engine.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    norm = _resolve_normalizer(a.shape[0], normalizer)
    # Tr(a b†) == sum_ij a_ij conj(b_ij)
    return complex(np.vdot(b.ravel(), a.ravel())) / norm


def hs_norm(a, normalizer: Optional[float] = None) -> float:
    """Norm induced by :func:`hs_inner`."""
    a = as_matrix(a)
    norm = _resolve_normalizer(a.shape[0], normalizer)
    return float(np.linalg.norm(a.ravel())) / np.sqrt(norm)


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential.

    Exactly Hermitian input ``h`` is exponentiated through its
    eigendecomposition ``h = V diag(w) V*`` (``np.linalg.eigh``) as
    ``V diag(exp(w)) V*``; exactly anti-Hermitian input ``m`` the same way
    through ``h = i m``, as ``V diag(exp(-i w)) V*``, which is unitary to
    rounding.  Anything else goes through scaling-and-squaring on the
    truncated power series.
    """
    m = as_matrix(a)
    mh = m.conj().T
    if np.array_equal(m, mh):
        w, v = np.linalg.eigh(m)
        return (v * np.exp(w)) @ v.conj().T
    if np.array_equal(m, -mh):
        w, v = np.linalg.eigh(1j * m)
        return (v * np.exp(-1j * w)) @ v.conj().T
    return _exp_series(m)


def _exp_series(m: np.ndarray) -> np.ndarray:
    scale = max_abs(m)
    squarings = 0
    if scale > 0.5:
        squarings = int(np.ceil(np.log2(scale / 0.5)))
        m = m / (2.0 ** squarings)
    eye = np.eye(m.shape[0], dtype=complex)
    total = eye.copy()
    term = eye
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = term @ m / k
        total = total + term
        if max_abs(term) <= 1e-17 * max(1.0, max_abs(total)):
            break
    else:
        raise RuntimeError(
            f"matrix exponential series did not converge within {_SERIES_MAX_TERMS} terms"
        )
    for _ in range(squarings):
        total = total @ total
    return total


class ExtendResult(NamedTuple):
    """Outcome of one orthonormalization step; rejection is a normal result."""

    accepted: bool
    residual_norm: float
    new_element: Optional[np.ndarray]


def orthonormal_extend(
    basis: Union[Sequence[np.ndarray], np.ndarray],
    candidate,
    tol: float = 1e-9,
    normalizer: Optional[float] = None,
) -> ExtendResult:
    """Try to grow an orthonormal set by one element.

    ``basis`` is a sequence of (d, d) matrices or one (k, d, d) array, and
    must already be orthonormal under :func:`hs_inner` with the given
    ``normalizer``.  Divided by the root of the normalizer, its elements
    are unit rows, and :func:`_orthonormal_step` projects the candidate on
    their complement with two passes of block classical Gram-Schmidt, the
    second restoring orthogonality lost to rounding in the first.  The
    candidate is accepted when the residual norm exceeds ``tol`` relative
    to the candidate's own norm; the returned element is unit-normalized
    under the same inner product as the basis.  ``tol`` must be finite and
    positive (:class:`ValueError` otherwise).  With ``normalizer=1.0`` the
    element is bit for bit the one the closure engine admits.
    """
    _check_tolerance(tol)
    m = as_matrix(candidate, "candidate")
    d = m.shape[0]
    root = np.sqrt(_resolve_normalizer(d, normalizer))
    norm0 = float(np.linalg.norm(m.ravel()))
    if norm0 == 0.0:
        return ExtendResult(False, 0.0, None)
    flat = np.asarray(basis, dtype=complex)
    if len(flat) and (flat.ndim != 3 or flat.shape[1:] != m.shape):
        raise ValueError(f"basis elements must have shape {m.shape}, got {flat.shape[1:]}")
    unit_rows = flat.reshape(len(flat), d * d) / root
    rnorm, element = _orthonormal_step(m.ravel(), norm0, unit_rows, tol, unit=root)
    accepted = element is not None
    return ExtendResult(accepted, rnorm / root, element.reshape(d, d) if accepted else None)


def _project(resid: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """One block Gram-Schmidt pass of a row or rows ``resid``: ``resid - (resid B^H) B``,
    B the orthonormal rows of ``flat``."""
    # R B^H == conj(conj(R) B^T) spares a conjugated copy of B; .conj() of real rows copies nothing
    return resid - (resid.conj() @ flat.T).conj() @ flat


def _orthonormal_step(
    residual: np.ndarray, norm: float, flat: np.ndarray, tol: float, unit: float = 1.0
) -> Tuple[float, Optional[np.ndarray]]:
    """``(rnorm, element)`` of a flat ``residual``: ``rnorm`` is its norm after two
    :func:`_project` passes, and ``element`` that result scaled to norm ``unit`` when
    ``rnorm`` exceeds ``tol * norm`` (``norm`` taken before projection), else None.
    The scaling is one division, which keeps signed zeros; a product would flip them."""
    for _ in range(2):
        residual = _project(residual, flat)
    rnorm = float(np.linalg.norm(residual))
    return rnorm, residual / (rnorm / unit) if rnorm > tol * norm else None
