"""Generator families over arrays of l-level sites.

Each generator is a phase times a Weyl monomial, ``nu^e W(x)``, built from
its term alone.  The families share one tensor layout (identity factors
leftmost, the active factor walking left as the generator index grows):

* ``clifford_generators``: 2n anticommuting involutions on n qubits, the
  sigma1/sigma2 body with a sigma3 tail.
* ``generalized_generators``: the order-l analogue built from the tau triple;
  consecutive elements zeta-commute and the family is the Clifford one at
  l=2, bit for bit.
* ``canonical_generators``: per-site shift/clock pairs, whose commutation
  exponents form the block-diagonal symplectic pattern.

``commutation_matrix`` recovers the integer exponent table c with
``g_i g_j = zeta^(c_ij) g_j g_i`` from any family; it, ``biproducts`` and
``universal_augmentation`` multiply matrices, since they accept hand-built ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .linalg import max_abs
from .vocabulary import GENERATOR_SET_NAMES
from .weyl import RootOfUnity, _WeylTerms, _check_order, _term_matrices, _weyl_adjoint, _weyl_product, tau_matrices

__all__ = [
    "pauli",
    "GeneratorFamily",
    "NoMatchingPowerError",
    "clifford_generators",
    "generalized_generators",
    "canonical_generators",
    "commutation_matrix",
    "biproducts",
    "universal_augmentation",
    "qudit_universal_set",
    "GENERATOR_SET_NAMES",
    "named_generator_set",
]

_PAULI = (np.eye(2, dtype=complex),) + tau_matrices(2)

_KINDS = ("clifford", "generalized", "canonical")

# Tolerance for recognizing the commutation exponent of a generator pair.
_POWER_MATCH_TOL = 1e-10
# Order check g^l == 1 applied to every stored family.
_ORDER_TOL = 1e-11


class NoMatchingPowerError(ValueError):
    """A generator pair is not zeta-power commuting; the family is malformed."""


def pauli(i: int) -> np.ndarray:
    """Pauli matrix by index, 0 through 3; index 0 is the identity."""
    if not isinstance(i, (int, np.integer)) or not 0 <= i <= 3:
        raise ValueError(f"pauli index must be 0..3, got {i!r}")
    return _PAULI[i].copy()


@dataclass(frozen=True)
class GeneratorFamily:
    """An ordered family of 2n generators of dimension l^n."""

    l: int
    n: int
    kind: str
    matrices: Tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.l < 2 or self.n < 1:
            raise ValueError(f"need l >= 2 and n >= 1, got l={self.l}, n={self.n}")
        if self.kind == "clifford" and self.l != 2:
            raise ValueError("clifford families require l == 2")
        if len(self.matrices) != 2 * self.n:
            raise ValueError(
                f"expected {2 * self.n} generators, got {len(self.matrices)}"
            )
        d = self.l**self.n
        # the first failing generator raises; its shape is checked first, then
        # that its entries are finite, then its order
        g = self.matrices
        shaped = next((k for k, m in enumerate(g) if m.shape != (d, d)), len(g))
        finite = next((k for k, m in enumerate(g[:shaped]) if not np.isfinite(m).all()), shaped)
        if finite:
            power = np.linalg.matrix_power(np.stack(g[:finite]), self.l)
            failed = np.flatnonzero(np.abs(power - np.eye(d)).max(axis=(1, 2)) > _ORDER_TOL)
            if failed.size:
                raise ValueError(f"generator {failed[0]} does not have order {self.l}")
        if finite < shaped:
            raise ValueError(f"generator {finite} has non-finite entries")
        if shaped < len(g):
            raise ValueError(f"generator {shaped} has shape {g[shaped].shape}, expected {(d, d)}")

    @property
    def dim(self) -> int:
        return self.l**self.n


def clifford_generators(n: int) -> GeneratorFamily:
    """2n pairwise anticommuting involutions on n qubits.

    Element 2k (2k+1) is identity on the leading n-k-1 sites, sigma1 (sigma2)
    on the next, and sigma3 on the trailing k sites.
    """
    return _family("clifford", 2, n)


def generalized_generators(l: int, n: int) -> GeneratorFamily:
    """Order-l analogue of the Clifford family on n l-level sites.

    Same tensor pattern with the tau triple in place of the Pauli matrices,
    each element built from its term; earlier elements zeta-commute past later
    ones and every element has order l.  At l=2 it is the Clifford family bit for bit.
    """
    return _family("generalized", l, n)


def canonical_generators(l: int, n: int) -> GeneratorFamily:
    """Per-site shift/clock pairs, ordered site-major.

    Site 1 occupies the leftmost tensor slot.  Same-site pairs zeta-commute,
    different sites commute, so the commutation matrix is block-diagonal
    with 2x2 symplectic blocks.
    """
    return _family("canonical", l, n)


def _family(kind: str, l: int, n: int) -> GeneratorFamily:
    """The family ``kind`` built from its terms; for n < 1 :class:`GeneratorFamily` raises."""
    _check_order(l)
    mats = tuple(_term_matrices(l, n, *_family_terms(kind, l, n))) if n >= 1 else ()
    return GeneratorFamily(l, n, kind, mats)


def commutation_matrix(fam: GeneratorFamily) -> np.ndarray:
    """Extract the antisymmetric exponent table of a family.

    For each pair i < j the power c in ``g_i @ g_j == zeta^c * g_j @ g_i`` is
    read from the phase of the inner product of the two products, then
    checked once: the relation must hold within 1e-10.  c is reduced to its
    minimal-magnitude representative; the l=2 tie between +1 and -1 resolves
    to +1 above the diagonal.  Raises :class:`NoMatchingPowerError` when the
    check fails, and ``ValueError`` when the representative falls outside
    {-1, 0, +1}.
    """
    size = len(fam.matrices)
    root = RootOfUnity(fam.l)
    table = np.zeros((size, size), dtype=int)
    for i in range(size):
        for j in range(i + 1, size):
            gij = fam.matrices[i] @ fam.matrices[j]
            gji = fam.matrices[j] @ fam.matrices[i]
            c = round(float(np.angle(np.vdot(gji, gij))) * fam.l / (2 * np.pi)) % fam.l
            residual = max_abs(gij - root.zeta_power(c) * gji)
            if not residual <= _POWER_MATCH_TOL:  # NaN fails too
                raise NoMatchingPowerError(
                    f"generators {i} and {j} are not zeta-power commuting "
                    f"(read power {c}, residual {residual:.3g})"
                )
            rep = c if c <= fam.l - c else c - fam.l
            if rep not in (-1, 0, 1):
                raise ValueError(
                    f"commutation exponent {c} of pair ({i}, {j}) has no "
                    "representative in {-1, 0, +1}"
                )
            table[i, j] = rep
            table[j, i] = -rep
    return table


def biproducts(fam: GeneratorFamily) -> List[np.ndarray]:
    """All products ``e_j @ e_k`` for j < k of a Clifford family.

    For anticommuting involutions these equal half the commutators and span
    a Lie algebra of dimension n(2n-1).
    """
    if fam.kind != "clifford":
        raise ValueError(f"biproducts require a clifford family, got {fam.kind!r}")
    e = fam.matrices
    return [e[j] @ e[k] for j in range(len(e)) for k in range(j + 1, len(e))]


def universal_augmentation(fam: GeneratorFamily) -> List[np.ndarray]:
    """Neighbor half-commutators plus the two extra elements that restore universality.

    Returns ``[e_j, e_j+1]/2`` for j = 0..2n-2 followed by ``e_0`` and
    ``e_0 @ e_1 @ e_2``.  Requires n >= 2.
    """
    if fam.kind != "clifford":
        raise ValueError(f"universal_augmentation requires a clifford family, got {fam.kind!r}")
    if fam.n < 2:
        raise ValueError(f"need n >= 2, got n={fam.n}")
    e = fam.matrices
    neighbors = [(e[j] @ e[j + 1] - e[j + 1] @ e[j]) / 2 for j in range(len(e) - 1)]
    return neighbors + [e[0].copy(), e[0] @ e[1] @ e[2]]


def qudit_universal_set(l: int, n: int) -> List[np.ndarray]:
    """The 2n-element gate-generator set ``f_0`` plus ``f_k @ f_k+1^dagger``.

    Each element acts on at most two adjacent tensor slots.  In the cases
    the tests check, l = 3..7 at n = 1 and l = 3, 4, 5 at n = 2, the set
    generates the full traceless matrix algebra, of dimension l^(2n) - 1,
    under sums and commutators.  For l = 2 it spans only so(2n + 1), of
    dimension n(2n + 1): 3, 10, 21, 36 for n = 1..4, which is all of su(2)
    at n = 1 and falls short of 4^n - 1 beyond.  Built from the terms, writable.
    """
    l, n = _check_set("qudit-universal", l, n)
    return list(_term_matrices(l, n, *_named_terms("qudit-universal", l, n)))


def named_generator_set(name: str, l: int, n: int) -> _WeylTerms:
    """Resolve a registry name to its matrices (the CLI entry point).

    Every element of a named set is a phase times a Weyl monomial,
    ``nu^e W(x)``.  The result is a read-only sequence that carries each
    element's ``exponents`` (e mod 2l) and ``codes`` (x, see
    :mod:`quditkit.weyl`), found by integer arithmetic: the one-site factors
    are tau1 = W(1, 0), tau2 = nu^(l-1) W(1, 1), tau3 = W(0, 1), the shift and
    the clock; products follow ``W(a, b) W(c, d) = zeta^(-b.c) W(a + c, b + d)``;
    an adjoint is ``nu^(-e - 2 a.b) W(-x)``.  The matrices, read-only, are
    :func:`~quditkit.weyl._term_matrices` of the terms, built on the first
    access to any of them; no family constructor runs.  ``prepare_generators``
    keeps the terms, and ``closure`` decides from them alone when it can (see there).
    """
    l, n = _check_set(name, l, n)
    return _WeylTerms(l, n, *_named_terms(name, l, n))


def _named_terms(name: str, l: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The terms ``(e, codes)`` of a named set, in the order its constructor lists its matrices."""
    if name == "canonical":
        return _family_terms("canonical", l, n)
    fam = _family_terms("generalized", l, n)  # at l=2, the clifford family
    if name in ("clifford", "generalized"):
        return fam
    if name == "biproducts":
        j, k = np.triu_indices(2 * n, 1)
        return _weyl_product(l, n, _at(fam, j), _at(fam, k))
    if name == "clifford-universal":
        # neighbors anticommute, so [e_j, e_j+1] / 2 is e_j e_j+1
        pairs = _weyl_product(l, n, _at(fam, slice(0, -1)), _at(fam, slice(1, None)))
        return _joined(pairs, _at(fam, [0]), _weyl_product(l, n, _at(pairs, [0]), _at(fam, [2])))
    # qudit-universal: f_0, then f_k f_k+1^H
    return _joined(_at(fam, [0]), _weyl_product(l, n, _at(fam, slice(0, -1)), _weyl_adjoint(l, n, _at(fam, slice(1, None)))))


def _at(terms: Tuple[np.ndarray, np.ndarray], index) -> Tuple[np.ndarray, np.ndarray]:
    return terms[0][index], terms[1][index]


def _joined(*parts: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _check_set(name: str, l: int, n: int) -> Tuple[int, int]:
    """The errors the set's constructors raise, in their order, before any matrix is built."""
    if name not in GENERATOR_SET_NAMES:
        raise ValueError(
            f"unknown generator set {name!r}; known sets: {', '.join(GENERATOR_SET_NAMES)}"
        )
    if name in _QUBIT_SETS:
        _require_qubit(name, l)
    else:
        _check_order(l)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"need l >= 2 and n >= 1, got l={l}, n={n}")
    if name == "clifford-universal" and n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    return int(l), int(n)


_QUBIT_SETS = ("clifford", "biproducts", "clifford-universal")


def _family_terms(kind: str, l: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The terms ``(e, codes)`` of the family ``kind``, one (e, a, b) per site summed."""
    # a code A*d + B is below d^2 = l^(2n), and np.intp holds it only up to 2^63 - 1
    if n > 63 or int(l) ** (2 * int(n)) > 2**63:
        raise ValueError(f"Weyl codes need l^(2n) <= 2^63, got l={l}, n={n}")
    if kind == "canonical":
        identity, shift, clock = (0, 0, 0), (0, 1, 0), (0, 0, 1)
        sites = [[identity] * site + [m] + [identity] * (n - site - 1) for site in range(n) for m in (shift, clock)]
    else:  # the identity, then tau1, tau2 and tau3 as (e, a, b); at l=2 the Pauli matrices
        identity, body1, body2, tail = (0, 0, 0), (0, 1, 0), (l - 1, 1, 1), (0, 0, 1)
        sites = [[identity] * (n - k - 1) + [body] + [tail] * k for k in range(n) for body in (body1, body2)]
    factors = np.array(sites, dtype=np.intp)  # (2n, n, 3): one (e, a, b) per site, site 1 first
    place = l ** np.arange(n - 1, -1, -1)
    return factors[..., 0].sum(axis=1) % (2 * l), (factors[..., 1] @ place) * l**n + factors[..., 2] @ place


def _require_qubit(name: str, l: int) -> None:
    if l != 2:
        raise ValueError(f"set {name!r} is defined for l=2 only, got l={l}")
