"""Generator families over arrays of l-level sites.

Three constructions share one tensor layout (identity factors leftmost, the
active factor walking left as the generator index grows):

* ``clifford_generators``: 2n anticommuting involutions on n qubits, the
  sigma1/sigma2 body with a sigma3 tail.
* ``generalized_generators``: the order-l analogue built from the tau triple;
  consecutive elements zeta-commute and the family is the Clifford one at
  l=2, bit for bit.
* ``canonical_generators``: per-site shift/clock pairs, whose commutation
  exponents form the block-diagonal symplectic pattern.

``commutation_matrix`` recovers the integer exponent table c with
``g_i g_j = zeta^(c_ij) g_j g_i`` from any family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List, Tuple

import numpy as np

from .linalg import dagger, max_abs
from .weyl import RootOfUnity, _check_order, _monomials, tau_matrices

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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices as the one broadcast product it makes,
    bit for bit, without its per-call overhead."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def _kron_chain(factors) -> np.ndarray:
    return reduce(_kron, factors[1:], factors[0].copy())  # one factor: a copy, not the factor


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
        # the first failing generator raises; its shape is checked before its order
        shaped = next(
            (idx for idx, g in enumerate(self.matrices) if g.shape != (d, d)), len(self.matrices)
        )
        if shaped:
            power = np.linalg.matrix_power(np.stack(self.matrices[:shaped]), self.l)
            failed = np.flatnonzero(np.abs(power - np.eye(d)).max(axis=(1, 2)) > _ORDER_TOL)
            if failed.size:
                raise ValueError(f"generator {failed[0]} does not have order {self.l}")
        if shaped < len(self.matrices):
            g = self.matrices[shaped]
            raise ValueError(f"generator {shaped} has shape {g.shape}, expected {(d, d)}")

    @property
    def dim(self) -> int:
        return self.l**self.n


def clifford_generators(n: int) -> GeneratorFamily:
    """2n pairwise anticommuting involutions on n qubits.

    Element 2k (2k+1) is identity on the leading n-k-1 sites, sigma1 (sigma2)
    on the next, and sigma3 on the trailing k sites.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _walking_family(2, n, "clifford", _PAULI)


def generalized_generators(l: int, n: int) -> GeneratorFamily:
    """Order-l analogue of the Clifford family on n l-level sites.

    Same tensor pattern with the tau triple in place of the Pauli matrices;
    earlier elements zeta-commute past later ones and every element has
    order l.  At l=2 its matrices are those of :func:`clifford_generators` bit for bit.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _walking_family(l, n, "generalized", (np.eye(l, dtype=complex),) + tau_matrices(l))


def _walking_family(l: int, n: int, kind: str, factors) -> GeneratorFamily:
    """Element 2k (2k+1): ``identity`` on n-k-1 sites, ``body1`` (``body2``), ``tail`` on k."""
    identity, body1, body2, tail = factors
    mats = tuple(
        _kron_chain([identity] * (n - k - 1) + [body] + [tail] * k)
        for k in range(n)
        for body in (body1, body2)
    )
    return GeneratorFamily(l, n, kind, mats)


def canonical_generators(l: int, n: int) -> GeneratorFamily:
    """Per-site shift/clock pairs, ordered site-major.

    Site 1 occupies the leftmost tensor slot.  Same-site pairs zeta-commute,
    different sites commute, so the commutation matrix is block-diagonal
    with 2x2 symplectic blocks.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    u, v = _monomials(_check_order(l), 1, [l, 1])  # shift and clock
    eyes = [np.eye(l**k, dtype=complex) for k in range(n)]
    mats = tuple(_kron_chain([eyes[site], m, eyes[n - site - 1]]) for site in range(n) for m in (u, v))
    return GeneratorFamily(l, n, "canonical", mats)


def commutation_matrix(fam: GeneratorFamily, tol: float = _POWER_MATCH_TOL) -> np.ndarray:
    """Extract the antisymmetric exponent table of a family.

    For each pair i < j, the unique power c with
    ``g_i @ g_j == zeta^c * g_j @ g_i`` (within ``tol``) is reduced to its
    minimal-magnitude representative; the l=2 tie between +1 and -1 resolves
    to +1 above the diagonal.  Raises :class:`NoMatchingPowerError` when no
    power matches, and ``ValueError`` when the representative falls outside
    {-1, 0, +1}.
    """
    size = len(fam.matrices)
    root = RootOfUnity(fam.l)
    table = np.zeros((size, size), dtype=int)
    for i in range(size):
        for j in range(i + 1, size):
            gij = fam.matrices[i] @ fam.matrices[j]
            gji = fam.matrices[j] @ fam.matrices[i]
            matches = [
                c
                for c in range(fam.l)
                if max_abs(gij - root.zeta_power(c) * gji) <= tol
            ]
            if len(matches) != 1:
                raise NoMatchingPowerError(
                    f"generators {i} and {j} are not zeta-power commuting "
                    f"(matching powers: {matches})"
                )
            c = matches[0]
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
    at n = 1 and falls short of 4^n - 1 beyond.
    """
    fam = generalized_generators(l, n)
    f = fam.matrices
    return [f[0]] + [f[k] @ dagger(f[k + 1]) for k in range(len(f) - 1)]


GENERATOR_SET_NAMES = (
    "clifford",
    "generalized",
    "canonical",
    "biproducts",
    "clifford-universal",
    "qudit-universal",
)


def named_generator_set(name: str, l: int, n: int) -> List[np.ndarray]:
    """Resolve a registry name to a list of matrices (the CLI entry point)."""
    if name == "clifford":
        _require_qubit(name, l)
        return list(clifford_generators(n).matrices)
    if name == "generalized":
        return list(generalized_generators(l, n).matrices)
    if name == "canonical":
        return list(canonical_generators(l, n).matrices)
    if name == "biproducts":
        _require_qubit(name, l)
        return biproducts(clifford_generators(n))
    if name == "clifford-universal":
        _require_qubit(name, l)
        return universal_augmentation(clifford_generators(n))
    if name == "qudit-universal":
        return qudit_universal_set(l, n)
    raise ValueError(
        f"unknown generator set {name!r}; known sets: {', '.join(GENERATOR_SET_NAMES)}"
    )


def _require_qubit(name: str, l: int) -> None:
    if l != 2:
        raise ValueError(f"set {name!r} is defined for l=2 only, got l={l}")
