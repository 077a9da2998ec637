"""State vectors over n l-level sites and gate application kernels.

Flat amplitude index is the big-endian mixed-radix reading of the site
digits: site 1 is the most significant digit and the leftmost tensor
factor.  Gates apply by contracting only the selected site indices
(stride arithmetic via reshape/moveaxis); ``embed_kgate`` builds the full
l^n matrix and exists as the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .linalg import as_matrix
from .weyl import _check_order, _check_sites, _nu_powers

__all__ = [
    "QuditState",
    "GateSpec",
    "basis_state",
    "apply_full",
    "apply_kgate",
    "embed_kgate",
    "qft_matrix",
    "momentum_basis",
    "cyclic_shift_gate",
    "perm_from_function",
    "reversible_embedding",
]


@dataclass(frozen=True)
class QuditState:
    """Amplitudes of n l-level sites; the norm is tracked, never forced to 1."""

    l: int
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_order(self.l)
        _check_sites(self.n)
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)  # owned copy
        if amp.size != self.l**self.n:
            raise ValueError(
                f"state needs {self.l**self.n} amplitudes, got {amp.size}"
            )
        if not np.all(np.isfinite(amp)):
            raise ValueError("state contains non-finite amplitudes")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class GateSpec:
    """A gate of arity k targeting k distinct 1-based sites, in listed order.

    Gate row/column indices read the selected site digits big-endian in the
    order the sites appear in ``sites``, so ``sites=(3, 1)`` binds the
    gate's leading digit to site 3.
    """

    l: int
    matrix: np.ndarray
    sites: Tuple[int, ...]

    def __post_init__(self):
        _check_order(self.l)
        m = as_matrix(self.matrix, "gate matrix").copy()  # owned copy
        sites = tuple(_integer(s, "site") for s in self.sites)
        if len(sites) < 1:
            raise ValueError("gate needs at least one site")
        if len(set(sites)) != len(sites):
            raise ValueError(f"duplicate sites in {sites}")
        if any(s < 1 for s in sites):
            raise ValueError(f"sites are 1-based, got {sites}")
        if m.shape[0] != self.l ** len(sites):
            raise ValueError(
                f"gate matrix dimension {m.shape[0]} does not match "
                f"l^k = {self.l ** len(sites)}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sites", sites)

    @property
    def arity(self) -> int:
        return len(self.sites)


def basis_state(l: int, n: int, digits: Sequence[int]) -> QuditState:
    """Computational basis state |d1 d2 ... dn> as a unit vector."""
    l, n = _check_order(l), _check_sites(n)
    if len(digits) != n:
        raise ValueError(f"expected {n} digits, got {len(digits)}")
    index = 0
    for d in digits:
        d = _integer(d, "digit")
        if not 0 <= d < l:
            raise ValueError(f"digit {d} out of range [0, {l})")
        index = index * l + d
    amp = np.zeros(l**n, dtype=complex)
    amp[index] = 1.0
    return QuditState(l, n, amp)


def apply_full(u, state: QuditState) -> QuditState:
    """Apply an l^n-dimensional matrix to the whole register."""
    u = as_matrix(u, "operator")
    if u.shape[0] != state.amplitudes.size:
        raise ValueError(
            f"operator dimension {u.shape[0]} does not match state size "
            f"{state.amplitudes.size}"
        )
    return QuditState(state.l, state.n, u @ state.amplitudes)


def _integer(value, name: str) -> int:
    """``value`` as an int if it is one (``int`` or ``np.integer``, as in :mod:`quditkit.weyl`)."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _gate_axes(gate: GateSpec, n: int) -> List[int]:
    axes = [s - 1 for s in gate.sites]
    for s in gate.sites:
        if s > n:
            raise ValueError(f"site {s} out of range [1, {n}]")
    return axes


def apply_kgate(gate: GateSpec, state: QuditState) -> QuditState:
    """Contract the gate over its selected site indices only."""
    if gate.l != state.l:
        raise ValueError(f"gate is l={gate.l}, state is l={state.l}")
    axes = _gate_axes(gate, state.n)
    l, n, k = state.l, state.n, gate.arity
    psi = state.amplitudes.reshape((l,) * n)
    moved = np.moveaxis(psi, axes, range(k))
    block = moved.reshape(l**k, -1)
    out = (gate.matrix @ block).reshape((l,) * n)
    result = np.moveaxis(out, range(k), axes)
    return QuditState(l, n, np.ascontiguousarray(result).reshape(-1))


def embed_kgate(gate: GateSpec, n: int) -> np.ndarray:
    """Full l^n matrix acting as the gate on its sites and identity elsewhere.

    Built by tensoring with the identity and permuting tensor slots; kept as
    the reference implementation that :func:`apply_kgate` is checked against.
    """
    axes = _gate_axes(gate, n)
    l, k = gate.l, gate.arity
    big = np.kron(gate.matrix, np.eye(l ** (n - k), dtype=complex))
    order = axes + [s for s in range(n) if s not in axes]
    perm = [order.index(s) for s in range(n)]
    t = big.reshape((l,) * (2 * n))
    t = np.transpose(t, perm + [n + p for p in perm])
    return np.ascontiguousarray(t).reshape(l**n, l**n)


def qft_matrix(l: int, normalized: bool = False) -> np.ndarray:
    """Discrete Fourier matrix with entries zeta^(k*j); unitary when normalized by 1/sqrt(l)."""
    l = _check_order(l)
    k = np.arange(l)
    f = _nu_powers(l)[2 * (np.outer(k, k) % l)]
    return f / np.sqrt(l) if normalized else f


def momentum_basis(l: int) -> List[QuditState]:
    """The l unnormalized vectors sum_j zeta^(k*j) |j>, eigenvectors of the shift matrices.

    Vector k is column k of the unnormalized Fourier matrix.  The
    algebra-side shift matrix scales it by zeta^k, the circuit-side
    :func:`cyclic_shift_gate` by zeta^(-k).
    """
    f = qft_matrix(l, normalized=False)
    return [QuditState(l, 1, f[:, k].copy()) for k in range(l)]


def cyclic_shift_gate(l: int) -> np.ndarray:
    """Permutation gate incrementing the basis index: |k> to |k+1 mod l>.

    This is the adjoint of the algebra-side shift matrix, matching the
    classical-register reading of a cyclic shift.
    """
    return perm_from_function([(k + 1) % l for k in range(l)], l)


def _check_table(values: Sequence[int], l: int) -> List[int]:
    l = _check_order(l)
    if len(values) != l:
        raise ValueError(f"function table needs {l} values, got {len(values)}")
    table = []
    for k, v in enumerate(values):
        v = _integer(v, f"f({k})")
        if not 0 <= v < l:
            raise ValueError(f"f({k}) = {v} out of range [0, {l})")
        table.append(v)
    return table


def perm_from_function(values: Sequence[int], l: int) -> np.ndarray:
    """0/1 matrix sum_k |f(k)><k| of a classical function on [0, l).

    Unitary exactly when f is a bijection; otherwise columns collide.
    """
    table = _check_table(values, l)
    m = np.zeros((l, l), dtype=complex)
    m[np.array(table), np.arange(l)] = 1.0
    return m


def reversible_embedding(values: Sequence[int], l: int) -> np.ndarray:
    """Permutation on pairs (x, y) to (x, f(x) + y mod l), flat index x*l + y.

    Always a permutation matrix, bijective or not: for fixed x the second
    component is a cyclic shift.  Applied to |x>|0> it yields |x>|f(x)>.
    """
    table = _check_table(values, l)
    m = np.zeros((l * l, l * l), dtype=complex)
    for x in range(l):
        for y in range(l):
            m[x * l + (table[x] + y) % l, x * l + y] = 1.0
    return m
