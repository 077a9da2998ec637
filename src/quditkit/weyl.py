"""Shift/clock operator pair on an l-level system and everything built on it.

The two matrices

    shift:  ones one place above the diagonal plus a bottom-left corner one
    clock:  diag(1, zeta, zeta^2, ..., zeta^(l-1)),  zeta = exp(2*pi*i/l)

satisfy ``shift @ clock == zeta * clock @ shift`` and both have order l.
The l^2 monomials ``shift^a @ clock^b`` form a basis of the full matrix
algebra, orthonormal under the trace inner product with normalizer l, which
gives a decomposition of arbitrary matrices into monomial coefficients.
Each monomial lives on one wrapped diagonal, so the decomposition is a
gather of the l wrapped diagonals followed by an FFT along each, and the
reconstruction is the inverse FFT scattered back.

On n sites (dimension d = l^n, site 1 the leftmost tensor factor) the
monomial ``W(x)``, x = (a_1..a_n, b_1..b_n) in Z_l^(2n), is the tensor
product of the per-site ``shift^a_k @ clock^b_k``.  It too lives on one
wrapped diagonal, the one with column digits ``j = i + a mod l`` site by
site, with values ``zeta^(b . j)``, so :func:`weyl_decompose` with ``n``
sites gathers the d wrapped diagonals and runs an n-dimensional FFT over
each.  Its (d, d) table is indexed by the base-l numbers of
(a_1..a_n) and (b_1..b_n), site 1 most significant; the integer
``code = A * d + B`` of entry (A, B) names the monomial in the closure
engine.

Column k of the shift matrix carries its one in row k-1 (mod l), so the
matrix lowers a computational basis index by one and its adjoint raises it.
The raising permutation is exposed separately by the circuit module, where
basis indices model classical register values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# Nothing here calls hs_inner; importing it keeps weyl.hs_inner bound for
# perfbench's traced run, which wraps that binding by name.
from .linalg import hs_inner  # noqa: F401
from .linalg import as_matrix, max_abs

__all__ = [
    "RootOfUnity",
    "shift_matrix",
    "clock_matrix",
    "weyl_element",
    "weyl_commutation_residual",
    "weyl_decompose",
    "weyl_reconstruct",
    "reflection_matrix",
    "rotated_basis_element",
    "tau_matrices",
    "fermat_power_residual",
    "scalar_factorization_residuals",
    "weyl_commutator_coefficient",
]


def _check_order(l: int) -> int:
    if not isinstance(l, (int, np.integer)) or l < 2:
        raise ValueError(f"order l must be an integer >= 2, got {l!r}")
    return int(l)


@dataclass(frozen=True)
class RootOfUnity:
    """Primitive l-th root of unity ``zeta`` and its principal square root ``nu``.

    ``nu = exp(i*pi/l)`` fixes a branch for half-integer powers of ``zeta``,
    which is needed for even l where ``zeta**(1/2)`` is ambiguous.
    """

    l: int

    def __post_init__(self):
        _check_order(self.l)

    @property
    def zeta(self) -> complex:
        return complex(np.exp(2j * np.pi / self.l))

    @property
    def nu(self) -> complex:
        return complex(np.exp(1j * np.pi / self.l))

    def zeta_power(self, k: int) -> complex:
        """``zeta**k`` computed from a reduced angle (exact periodicity)."""
        return complex(np.exp(2j * np.pi * (int(k) % self.l) / self.l))

    def nu_power(self, k: int) -> complex:
        """``nu**k``; nu has order 2l."""
        return complex(np.exp(1j * np.pi * (int(k) % (2 * self.l)) / self.l))


def shift_matrix(l: int) -> np.ndarray:
    """Cyclic shift of order l: entry one at (k, k+1 mod l).

    Satisfies ``shift @ clock == zeta * clock @ shift``.  Acting on a column
    vector it sends basis index k to k-1 (mod l); the adjoint permutation
    raises indices instead.
    """
    l = _check_order(l)
    u = np.zeros((l, l), dtype=complex)
    idx = np.arange(l)
    u[idx, (idx + 1) % l] = 1.0
    return u


def clock_matrix(l: int) -> np.ndarray:
    """Diagonal matrix of the l-th roots of unity, diag(zeta^k)."""
    l = _check_order(l)
    angles = 2j * np.pi * np.arange(l) / l
    return np.diag(np.exp(angles))


def _check_sites(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"site count n must be an integer >= 1, got {n!r}")
    return int(n)


def _check_index(l: int, value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)) or not 0 <= value < l:
        raise ValueError(f"{name} must lie in [0, {l}), got {value!r}")
    return int(value)


def weyl_element(l: int, a: int, b: int) -> np.ndarray:
    """Monomial ``shift^a @ clock^b``, built entrywise.

    The product has one nonzero per row: row i holds ``zeta**(b*j)`` in
    column ``j = (i + a) mod l``.
    """
    l = _check_order(l)
    a = _check_index(l, a, "shift power a")
    b = _check_index(l, b, "clock power b")
    idx = np.arange(l)
    cols = (idx + a) % l
    m = np.zeros((l, l), dtype=complex)
    m[idx, cols] = np.exp(2j * np.pi * ((b * cols) % l) / l)
    return m


def weyl_commutation_residual(l: int) -> float:
    """Max-entry residual of ``shift @ clock - zeta * clock @ shift``."""
    u = shift_matrix(l)
    v = clock_matrix(l)
    zeta = RootOfUnity(l).zeta
    return max_abs(u @ v - zeta * (v @ u))


def weyl_decompose(m, l: int, n: int = 1) -> np.ndarray:
    """Coefficients of ``m`` in the monomial basis of ``n`` l-level sites.

    Returns an (l^n, l^n) table indexed by (shift powers, clock powers),
    each the base-l number of its n per-site powers with site 1 most
    significant; entry (A, B) is the trace inner product of ``m`` with the
    monomial ``W(x)`` using normalizer l^n.  For one site that is the (l, l)
    table of ``shift^a @ clock^b``, and reconstruction through
    :func:`weyl_reconstruct` recovers ``m``.

    ``shift^a @ clock^b`` is supported on the wrapped diagonal of entries
    ``((j - a) mod l, j)`` with values ``zeta^(b*j)``, so row a of the table
    is the discrete Fourier transform of that diagonal of ``m``: one gather
    and one FFT along the rows, O(l^2 log l).  On n sites the diagonal of
    row A is gathered site by site and transformed by an n-dimensional FFT,
    O(d^2 log d) for d = l^n.
    """
    l = _check_order(l)
    n = _check_sites(n)
    m = as_matrix(m)
    if m.shape[0] != l**n:
        raise ValueError(f"dimension mismatch: matrix is {m.shape[0]}, expected {l**n}")
    return _decompose(m, l, n)


def _decompose(stack: np.ndarray, l: int, n: int) -> np.ndarray:
    """:func:`weyl_decompose` of each (d, d) matrix on the last two axes, unchecked."""
    rows, cols = _wrapped_diagonals(l, n)
    return _diagonal_coefficients(stack[..., rows, cols], l, n)


def _diagonal_coefficients(diagonals: np.ndarray, l: int, n: int) -> np.ndarray:
    """Monomial coefficients of wrapped diagonals, each of l^n entries on the last axis.

    Diagonal A of a matrix, gathered as :func:`_wrapped_diagonals` orders it,
    becomes row A of its :func:`weyl_decompose` table: the n-dimensional FFT
    of the diagonal over d.  Each coefficient is thus the mean of the
    diagonal's entries times roots of unity.
    """
    d = diagonals.shape[-1]
    table = diagonals.reshape(diagonals.shape[:-1] + (l,) * n)
    # the n-dimensional FFT as n one-dimensional ones, which spares fftn's overhead
    for axis in range(-n, 0):
        table = np.fft.fft(table, axis=axis)
    table /= d
    return table.reshape(diagonals.shape)


def weyl_reconstruct(table) -> np.ndarray:
    """Sum of monomials weighted by an (l, l) coefficient table.

    The inverse of :func:`weyl_decompose`: an inverse FFT along the rows
    gives each wrapped diagonal, which is scattered back into place.
    """
    table = np.asarray(table, dtype=complex)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"coefficient table must be square, got shape {table.shape}")
    l = table.shape[0]
    _check_order(l)
    rows, cols = _wrapped_diagonals(l)
    out = np.empty((l, l), dtype=complex)
    out[rows, cols] = l * np.fft.ifft(table, axis=1)
    return out


def _wrapped_diagonals(l: int, n: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays of the wrapped diagonals of n sites: (l^n, l^n) rows, l^n columns.

    ``(rows[A, J], cols[J])`` is the entry whose column digits are J's and
    whose row digits are ``(j_k - a_k) mod l``, so row A lists the support
    of the shift monomial with powers A, ordered by column; the two arrays
    broadcast together as indices.  For one site,
    ``(rows[a, j], cols[j]) == ((j - a) mod l, j)``.
    """
    a = np.arange(l)
    site = (a[None, :] - a[:, None]) % l
    rows = site
    for _ in range(n - 1):
        rows = (l * rows[:, None, :, None] + site[None, :, None, :]).reshape(l * len(rows), -1)
    return rows, np.arange(len(rows))


def _monomial_entries(l: int, n: int, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nonzero entries of the monomials ``W(x)`` named by ``codes`` (see the module notes).

    Returns two (k, d) arrays: row i of the monomial of ``codes[k]`` holds
    ``values[k, i]`` in column ``cols[k, i]`` and is zero elsewhere.  For
    x = (a, b) that column j has the digits ``i + a mod l`` and the value is
    ``zeta^(b . j)``.
    """
    digits = _digits(l, n)
    shifts, clocks = np.divmod(np.asarray(codes, dtype=np.intp), l**n)
    col_digits = (digits[None, :, :] + digits[shifts][:, None, :]) % l
    cols = col_digits @ (l ** np.arange(n - 1, -1, -1))
    powers = np.einsum("kin,kn->ki", col_digits, digits[clocks]) % l
    return cols, np.exp(2j * np.pi * powers / l)


def _digits(l: int, n: int) -> np.ndarray:
    """(l^n, n) table of base-l digits, most significant first."""
    return np.indices((l,) * n).reshape(n, -1).T


def reflection_matrix(l: int) -> np.ndarray:
    """Order-reversing permutation, basis index k to l-1-k; an involution."""
    l = _check_order(l)
    m = np.zeros((l, l), dtype=complex)
    m[l - 1 - np.arange(l), np.arange(l)] = 1.0
    return m


def rotated_basis_element(l: int, j: int, k: int) -> np.ndarray:
    """Phase-corrected monomial times the reflection: ``nu^(kj) shift^j clock^k R``.

    The nu phase realizes the half-integer power ``zeta^(kj/2)`` on the fixed
    branch; for odd k*j and even l the other branch differs by a sign.  The
    l^2 elements are orthonormal under the trace inner product with
    normalizer l.
    """
    l = _check_order(l)
    j = _check_index(l, j, "index j")
    k = _check_index(l, k, "index k")
    phase = RootOfUnity(l).nu_power(k * j)
    return phase * (weyl_element(l, j, k) @ reflection_matrix(l))


def tau_matrices(l: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Qudit analogues of the three Pauli matrices.

    Returns ``(shift, nu^(l-1) * shift @ clock, clock)``.  The middle element
    carries the phase ``nu^(l-1)`` so that all three have order exactly l,
    and each earlier element zeta-commutes with each later one.  At l=2 the
    triple equals the three Pauli matrices.
    """
    l = _check_order(l)
    u = shift_matrix(l)
    v = clock_matrix(l)
    t2 = RootOfUnity(l).nu_power(l - 1) * (u @ v)
    return u, t2, v


def fermat_power_residual(l: int, a: complex, b: complex) -> float:
    """Residual of the operator power-sum identity ``(a*clock + b*shift)^l = (a^l + b^l) 1``."""
    l = _check_order(l)
    a = complex(a)
    b = complex(b)
    m = a * clock_matrix(l) + b * shift_matrix(l)
    powered = np.linalg.matrix_power(m, l)
    expected = (a**l + b**l) * np.eye(l, dtype=complex)
    return max_abs(powered - expected)


def scalar_factorization_residuals(
    l: int, a: complex, b: complex
) -> Tuple[Optional[float], float]:
    """Residuals of the two scalar factorizations of ``a^l + b^l``.

    The nu-form ``prod_k (a - nu^(2k+1) b)`` holds for every l; the plain
    root form ``prod_k (a + zeta^k b)`` only for odd l, so its residual is
    ``None`` when l is even.  Products are evaluated left to right; no
    compensated accumulation is needed at these magnitudes.
    """
    l = _check_order(l)
    a = complex(a)
    b = complex(b)
    root = RootOfUnity(l)
    target = a**l + b**l
    nu_product = 1.0 + 0.0j
    for k in range(l):
        nu_product *= a - root.nu_power(2 * k + 1) * b
    residual_nu = abs(nu_product - target)
    residual_odd: Optional[float] = None
    if l % 2 == 1:
        odd_product = 1.0 + 0.0j
        for k in range(l):
            odd_product *= a + root.zeta_power(k) * b
        residual_odd = abs(odd_product - target)
    return residual_odd, residual_nu


def weyl_commutator_coefficient(
    l: int, p: Tuple[int, int], q: Tuple[int, int]
) -> Tuple[complex, Tuple[int, int]]:
    """Closed form of the commutator of two monomials.

    With ``W(a,b) = shift^a clock^b``,

        [W(a,b), W(c,d)] = (zeta^(-b*c) - zeta^(-a*d)) * W(a+c mod l, b+d mod l).

    Returns the scalar coefficient and the index of the resulting monomial.
    """
    l = _check_order(l)
    a = _check_index(l, p[0], "p shift power")
    b = _check_index(l, p[1], "p clock power")
    c = _check_index(l, q[0], "q shift power")
    d = _check_index(l, q[1], "q clock power")
    root = RootOfUnity(l)
    coefficient = root.zeta_power(-b * c) - root.zeta_power(-a * d)
    return coefficient, ((a + c) % l, (b + d) % l)
