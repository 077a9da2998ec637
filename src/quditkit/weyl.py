"""Shift/clock operator pair on an l-level system and everything built on it.

The two matrices

    shift:  ones one place above the diagonal plus a bottom-left corner one
    clock:  diag(1, zeta, zeta^2, ..., zeta^(l-1)),  zeta = exp(2*pi*i/l)

satisfy ``shift @ clock == zeta * clock @ shift`` and both have order l.
Every zeta^k and nu^k, nu = exp(i*pi/l), in the package is read from one
table, exact at the quarter turns 1, i, -1 and -i.
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
engine.  A phase times a monomial, ``nu^e W(x)``, is the term ``(e, code)``;
terms multiply by ``W(a, b) W(c, d) = zeta^(-b.c) W(a + c, b + d)``, in
integer arithmetic on e mod 2l and the digits.

Column k of the shift matrix carries its one in row k-1 (mod l), so the
matrix lowers a computational basis index by one and its adjoint raises it.
The raising permutation is exposed separately by the circuit module, where
basis indices model classical register values.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from operator import mul
from typing import Callable, Optional, Tuple

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


# Root-of-unity tables cached at once: more orders than a verify grid or the tests read.
_NU_TABLES = 128


@lru_cache(maxsize=_NU_TABLES)
def _nu_powers(l: int) -> np.ndarray:
    """Read-only ``nu^k`` for k < 2l, ``nu = exp(i*pi/l)``, so ``zeta^k`` is entry 2k.

    One array ``exp`` gives every entry; quarter turns are written as exact 1, i, -1, -i.
    The cache keeps the ``_NU_TABLES`` orders read last.  That bounds the tables'
    count, not their size: one read at l = 10^6, a scalar ``RootOfUnity.zeta_power``
    included, still builds and keeps that order's whole table (32 MB).
    """
    k = np.arange(2 * l)
    table = np.exp(1j * np.pi * k / l)
    quarter = 2 * k % l == 0
    table[quarter] = np.array([1, 1j, -1, -1j])[2 * k[quarter] // l]
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class RootOfUnity:
    """Primitive l-th root of unity ``zeta`` and its principal square root ``nu``.

    ``nu = exp(i*pi/l)`` fixes a branch for half-integer powers of ``zeta``,
    which is needed for even l where ``zeta**(1/2)`` is ambiguous.  Powers
    come from the table every matrix reads, so they are exact at quarter turns.
    """

    l: int

    def __post_init__(self):
        _check_order(self.l)

    @property
    def zeta(self) -> complex:
        return self.zeta_power(1)

    @property
    def nu(self) -> complex:
        return self.nu_power(1)

    def zeta_power(self, k: int) -> complex:
        """``zeta**k``, read at the reduced exponent (exact periodicity)."""
        return self.nu_power(2 * (int(k) % self.l))

    def nu_power(self, k: int) -> complex:
        """``nu**k``; nu has order 2l."""
        return complex(_nu_powers(self.l)[int(k) % (2 * self.l)])


def shift_matrix(l: int) -> np.ndarray:
    """Cyclic shift of order l: entry one at (k, k+1 mod l).

    Satisfies ``shift @ clock == zeta * clock @ shift``.  Acting on a column
    vector it sends basis index k to k-1 (mod l); the adjoint permutation
    raises indices instead.
    """
    return weyl_element(l, 1, 0)


def clock_matrix(l: int) -> np.ndarray:
    """Diagonal matrix of the l-th roots of unity, diag(zeta^k)."""
    return weyl_element(l, 0, 1)


def _check_sites(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"site count n must be an integer >= 1, got {n!r}")
    return int(n)


def _check_index(l: int, value: int, name: str) -> int:
    if not isinstance(value, (int, np.integer)) or not 0 <= value < l:
        raise ValueError(f"{name} must lie in [0, {l}), got {value!r}")
    return int(value)


def weyl_element(l: int, a: int, b: int) -> np.ndarray:
    """Monomial ``shift^a @ clock^b``, built entrywise by :func:`_monomials`.

    The product has one nonzero per row: row i holds ``zeta**(b*j)`` in
    column ``j = (i + a) mod l``.
    """
    l = _check_order(l)
    a = _check_index(l, a, "shift power a")
    b = _check_index(l, b, "clock power b")
    return _monomials(l, 1, [a * l + b])[0]


def weyl_commutation_residual(l: int) -> float:
    """Max-entry residual of ``shift @ clock - zeta * clock @ shift``."""
    u, v = _monomials(_check_order(l), 1, [l, 1])  # W(1, 0) and W(0, 1)
    return max_abs(u @ v - RootOfUnity(l).zeta * (v @ u))


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


def _monomial_entries(l: int, n: int, codes, exponents=0) -> Tuple[np.ndarray, np.ndarray]:
    """Nonzero entries of the terms ``nu^e W(x)`` of ``exponents`` and ``codes`` (see the module notes).

    Returns two (k, d) arrays: row i of term k holds ``values[k, i]`` in
    column ``cols[k, i]`` and is zero elsewhere.  For x = (a, b) that column
    j has the digits ``i + a mod l`` and the value is ``nu^(e + 2 b.j)``, one table read.
    """
    digits = _digits(l, n)
    shifts, clocks = np.divmod(np.asarray(codes, dtype=np.intp), l**n)
    col_digits = (digits[None, :, :] + digits[shifts][:, None, :]) % l
    cols = col_digits @ (l ** np.arange(n - 1, -1, -1))
    powers = np.asarray(exponents, dtype=np.intp)[..., None] + 2 * np.einsum("kin,kn->ki", col_digits, digits[clocks])
    return cols, _nu_powers(l)[powers % (2 * l)]


def _term_matrices(l: int, n: int, exponents, codes) -> np.ndarray:
    """(k, d, d) stack of the terms ``nu^e W(x)``, the package's one writer of such matrices."""
    cols, values = _monomial_entries(l, n, codes, exponents)
    stack = np.zeros((len(cols), l**n, l**n), dtype=complex)
    stack[np.arange(len(cols))[:, None], np.arange(l**n), cols] = values
    return stack


def _monomials(l: int, n: int, codes) -> np.ndarray:
    """(k, d, d) stack of the monomials ``W(x)`` named by ``codes``."""
    return _term_matrices(l, n, 0, codes)


def _digits(l: int, n: int) -> np.ndarray:
    """(l^n, n) table of base-l digits, most significant first."""
    return np.indices((l,) * n).reshape(n, -1).T


def _code_digits(l: int, n: int, codes) -> np.ndarray:
    """The (..., 2n) digits of monomial ``codes``: shift digits a, then clock digits b."""
    return np.asarray(codes, dtype=np.intp)[..., None] // l ** np.arange(2 * n - 1, -1, -1) % l


def _digit_codes(l: int, digits: np.ndarray) -> np.ndarray:
    """The codes of (..., 2n) digit rows, the inverse of :func:`_code_digits`."""
    return digits @ l ** np.arange(digits.shape[-1] - 1, -1, -1)


def _weyl_product(
    l: int, n: int, left: Tuple[np.ndarray, np.ndarray], right: Tuple[np.ndarray, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The terms ``(e, codes)`` of the products of the terms ``left`` and ``right``, elementwise.

    A term ``(e, code)`` is ``nu^e W(x)`` with e mod 2l.  The group law
    ``W(a, b) W(c, d) = zeta^(-b.c) W(a + c, b + d)`` makes the product of
    ``nu^e W(a, b)`` and ``nu^f W(c, d)`` the term ``(e + f - 2 b.c, x + y)``.
    """
    e, f = np.asarray(left[0]), np.asarray(right[0])
    x, y = _code_digits(l, n, left[1]), _code_digits(l, n, right[1])
    phase = e + f - 2 * np.einsum("...i,...i->...", x[..., n:], y[..., :n])
    return phase % (2 * l), _digit_codes(l, (x + y) % l)


def _negation(l: int, digits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The digits and the codes of ``-x`` for (..., 2n) digit rows x."""
    negated = -digits % l
    return negated, _digit_codes(l, negated)


def _weyl_adjoint(l: int, n: int, terms: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """The terms of the adjoints: ``(nu^e W(a, b))^H = nu^(-e - 2 a.b) W(-a, -b)``."""
    e, x = np.asarray(terms[0]), _code_digits(l, n, terms[1])
    phase = -e - 2 * np.einsum("...i,...i->...", x[..., :n], x[..., n:])
    return phase % (2 * l), _negation(l, x)[1]


class _BuiltOnce(Sequence):
    """``size`` (d, d) matrices that one ``build()`` call makes on the first access to
    any of them, read-only from then on; ``len`` builds none.  Indexes and slices
    act as on a tuple of the matrices.
    """

    def __init__(self, size: int, build: Callable[[], Sequence]):
        self._size, self._build = size, build

    @cached_property
    def _matrices(self) -> Tuple[np.ndarray, ...]:
        matrices = tuple(np.asarray(m) for m in self._build())
        for m in matrices:
            m.setflags(write=False)
        return matrices

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._matrices[index]


class _WeylTerms(_BuiltOnce):
    """The matrices ``nu^e W(x)``, :func:`_term_matrices` of their terms, built once and read-only.

    ``exponents[i]`` (mod 2l) and ``codes[i]`` (see the module notes) name
    element i; both are read-only, like the matrices, so the two cannot come to disagree.
    """

    def __init__(self, l: int, n: int, exponents, codes):
        self.l, self.n = l, n
        self.exponents, self.codes = (np.array(a, dtype=np.intp) for a in (exponents, codes))
        for a in (self.exponents, self.codes):
            a.setflags(write=False)
        super().__init__(len(self.codes), partial(_term_matrices, l, n, self.exponents, self.codes))

    def __repr__(self) -> str:
        return f"_WeylTerms(l={self.l}, n={self.n}, len={len(self)})"


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

    Returns ``(shift, nu^(l-1) * shift @ clock, clock)``, built from their terms.
    The middle element carries the phase ``nu^(l-1)`` so that all three have
    order exactly l, and each earlier element zeta-commutes with each later
    one.  At l=2 the triple is the Pauli matrices bit for bit.
    """
    l = _check_order(l)
    return tuple(_term_matrices(l, 1, [0, l - 1, 0], [l, l + 1, 1]))


def fermat_power_residual(l: int, a: complex, b: complex) -> float:
    """Residual of the operator power-sum identity ``(a*clock + b*shift)^l = (a^l + b^l) 1``."""
    l = _check_order(l)
    a, b = complex(a), complex(b)
    v, u = _monomials(l, 1, [1, l])  # clock and shift
    m = a * v + b * u
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
    a, b = complex(a), complex(b)
    nus = [complex(z) for z in _nu_powers(l)]  # zeta^k is nus[2k]
    target = a**l + b**l
    residual_nu = abs(reduce(mul, [a - z * b for z in nus[1::2]], 1 + 0j) - target)
    residual_odd = abs(reduce(mul, [a + z * b for z in nus[::2]], 1 + 0j) - target) if l % 2 else None
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
