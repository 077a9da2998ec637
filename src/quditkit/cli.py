"""Command-line front end.

Subcommands: ``generate``, ``verify``, ``closure``, ``decompose``, ``qft``,
``apply``.  Exit status contract: 0 on success or pass, 1 when a
verification or expectation fails, 2 on usage or file-format problems.
All numeric output is 17-significant-digit decimal and reports contain no
timestamps, so identical inputs produce byte-identical output.

The default tolerance is 1e-9 and can be overridden with the
``QUDITKIT_TOLERANCE`` environment variable or ``--tolerance``.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from . import __version__
from .vocabulary import DEFAULT_DIMS, DEFAULT_SITES, GENERATOR_SET_NAMES, MODES, REAL_ANTIHERMITIAN

if TYPE_CHECKING:
    import numpy as np

    from .verify import VerifyReport

# The library names the handlers read, by defining module.  They are bound
# into this module on first need: ``main`` binds a command's names before it
# dispatches, and a read of ``quditkit.cli.<name>`` binds that module's names.
# A name already bound, such as a wrapper set on ``quditkit.cli``, stays.  A
# name is bound to the defining module's own function: a wrapper set on the
# defining module (``functools.wraps`` keeps the original as ``__wrapped__``)
# is left out, so the binding does not depend on when that wrapper was set.
_LIBRARY_NAMES = {
    "linalg": ("max_abs",),
    "weyl": ("clock_matrix", "shift_matrix", "tau_matrices", "weyl_decompose", "weyl_reconstruct"),
    "circuit": ("GateSpec", "apply_full", "apply_kgate", "qft_matrix"),
    "serialize": ("FormatError", "format_float", "load_matrix", "load_state", "save_matrix",
                  "save_state", "save_weyl_coefficients"),
    "clifford": ("named_generator_set",),
    "universality": ("closure", "prepare_generators"),
    "verify": ("run_verification",),
}
_MODULE_OF = {name: module for module, names in _LIBRARY_NAMES.items() for name in names}
# serialize imports circuit, linalg and weyl, so every command loads them
_BASE_MODULES = ("linalg", "weyl", "circuit", "serialize")
# ``closure`` binds ``clifford`` only for a named set, in ``cmd_closure``
_COMMAND_MODULES = {
    "generate": ("clifford",),
    "verify": ("verify",),
    "closure": ("universality",),
}


def _bind(modules: Sequence[str]) -> None:
    namespace = globals()
    for module_name in modules:
        module = importlib.import_module(f"{__package__}.{module_name}")
        for name in _LIBRARY_NAMES[module_name]:
            if name not in namespace:
                value = getattr(module, name)
                while hasattr(value, "__wrapped__"):
                    value = value.__wrapped__
                namespace[name] = value


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((_MODULE_OF[name],))
    return globals()[name]


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_ENV_TOLERANCE = "QUDITKIT_TOLERANCE"
_DEFAULT_TOLERANCE = 1e-9
# A dense closure basis can reach l^(2n) - 1 matrices of d^2 entries, and the
# dense engine costs O(d^8) time; dimensions past this cap need an explicit
# override.
_DEFAULT_MAX_DIM = 32

_EXTRA_SETS = ("weyl-pair", "tau", "qft")


def _default_tolerance() -> Optional[float]:
    raw = os.environ.get(_ENV_TOLERANCE)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise FormatError(f"{_ENV_TOLERANCE} is not a number: {raw!r}") from exc
    if not 0 < value < math.inf:
        raise FormatError(f"{_ENV_TOLERANCE} must be finite and positive, got {raw!r}")
    return value


def _resolve_tolerance(args) -> float:
    if args.tolerance is not None:
        return args.tolerance
    env = _default_tolerance()
    return env if env is not None else _DEFAULT_TOLERANCE


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _dim_arg(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"dimension must be >= 2, got {text}")
    return value


def _sites_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"site count must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditkit",
        description="Operator families, identity verification, Lie-closure "
        "universality tests, and state-vector gate application for qudits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tolerance=True):
        p.add_argument("--format", choices=("structured-text", "tabular"),
                       default="structured-text", help="report layout")
        if tolerance:
            p.add_argument("--tolerance", type=_positive_float, default=None,
                           help=f"numeric tolerance (default {_DEFAULT_TOLERANCE:g}, "
                                f"or ${_ENV_TOLERANCE})")

    p = sub.add_parser("generate", help="write a named matrix set to files")
    p.add_argument("--set", required=True, dest="set_name",
                   help=f"one of: {', '.join(GENERATOR_SET_NAMES + _EXTRA_SETS)}")
    p.add_argument("--dim", type=_dim_arg, default=2, help="level count l (default 2)")
    p.add_argument("--sites", type=_sites_arg, default=1, help="site count n (default 1)")
    p.add_argument("--normalized", action="store_true", help="scale the qft set by 1/sqrt(l)")
    p.add_argument("--output", default=".", help="output directory (default .)")
    common(p, tolerance=False)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("verify", help="run the identity suites and report residuals")
    p.add_argument("--dim", type=_dim_arg, default=None,
                   help=f"single l (default grid {DEFAULT_DIMS})")
    p.add_argument("--sites", type=_sites_arg, default=None,
                   help=f"single n (default grid {DEFAULT_SITES})")
    p.add_argument("--output", default=None, help="also write the report to this path")
    common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("closure", help="decide universality by commutator closure")
    p.add_argument("--set", default=None, dest="set_name",
                   help=f"one of: {', '.join(GENERATOR_SET_NAMES + _EXTRA_SETS[:2])}")
    p.add_argument("--input", default=None,
                   help="matrix file or directory of matrix files supplying the "
                        "generator set (alternative to --set)")
    p.add_argument("--dim", type=_dim_arg, default=2)
    p.add_argument("--sites", type=_sites_arg, default=1)
    p.add_argument("--mode", choices=MODES, default=REAL_ANTIHERMITIAN)
    p.add_argument("--expect-universal", action="store_true",
                   help="exit 1 unless the set is universal")
    p.add_argument("--max-dim", type=int, default=_DEFAULT_MAX_DIM,
                   help=f"refuse matrix dimensions above this cap (default {_DEFAULT_MAX_DIM})")
    p.add_argument("--output", default=None, help="also write the report to this path")
    p.add_argument("--dump-basis", default=None, metavar="DIR",
                   help="write the closure basis as matrix files")
    common(p)
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("decompose", help="decompose a matrix over the shift/clock monomials")
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--dim", type=_dim_arg, default=None,
                   help="expected l (default: the file's dimension)")
    p.add_argument("--output", default=None, help="write the coefficient table here")
    common(p, tolerance=False)
    p.add_argument("--tolerance", type=_positive_float, default=None,
                   help="accepted and ignored: the report prints every coefficient "
                        "above 1e-15 times the largest")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("qft", help="emit the discrete Fourier matrix")
    p.add_argument("--dim", type=_dim_arg, required=True)
    p.add_argument("--normalized", action="store_true", help="scale by 1/sqrt(l)")
    p.add_argument("--output", default=None, help="write a matrix file instead of printing")
    common(p, tolerance=False)
    p.set_defaults(handler=cmd_qft)

    p = sub.add_parser("apply", help="apply a gate to a state-vector file")
    p.add_argument("--input", required=True, help="state file")
    p.add_argument("--gate", default=None, help="gate matrix file")
    p.add_argument("--set", default=None, dest="set_name",
                   help="named gate instead of --gate (currently: qft)")
    p.add_argument("--dim", type=_dim_arg, default=None, help="l for --set gates")
    p.add_argument("--normalized", action="store_true", help="normalize a --set qft gate")
    p.add_argument("--sites", default=None,
                   help="comma-separated 1-based target sites (default: whole register)")
    p.add_argument("--output", default=None, help="write the resulting state here")
    common(p, tolerance=False)
    p.set_defaults(handler=cmd_apply)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _bind(_BASE_MODULES + _COMMAND_MODULES.get(args.command, ()))
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


# --------------------------------------------------------------------------
# named sets


def _resolve_set(name: str, l: int, n: int, normalized: bool) -> List[Tuple[str, np.ndarray]]:
    if name == "weyl-pair":
        return [("shift", shift_matrix(l)), ("clock", clock_matrix(l))]
    if name == "tau":
        t1, t2, t3 = tau_matrices(l)
        return [("tau1", t1), ("tau2", t2), ("tau3", t3)]
    if name == "qft":
        return [("qft", qft_matrix(l, normalized=normalized))]
    mats = named_generator_set(name, l, n)
    width = len(str(len(mats) - 1))
    return [(f"{name}-{i:0{width}d}", m) for i, m in enumerate(mats)]


def _set_sites(args) -> int:
    """The site count of the matrices ``--set`` names; weyl-pair, tau and qft are l x l whatever ``--sites``."""
    return 1 if args.set_name in _EXTRA_SETS else args.sites


def _load_matrix_set(source: str) -> List[np.ndarray]:
    path = Path(source)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise FormatError(f"{source}: no matrix files found")
        return [load_matrix(f) for f in files]
    return [load_matrix(path)]


# --------------------------------------------------------------------------
# report rendering


def _render_pairs(pairs: Sequence[Tuple[str, str]], fmt: str) -> str:
    if fmt == "tabular":
        header = "\t".join(key for key, _ in pairs)
        row = "\t".join(value for _, value in pairs)
        return f"{header}\n{row}\n"
    return "".join(f"{key}: {value}\n" for key, value in pairs)


def _render_verify(report: VerifyReport, fmt: str) -> str:
    lines: List[str] = []
    if fmt == "tabular":
        lines.append("name\tparams\tidentity\tresidual\ttolerance\tstatus")
        for c in report.checks:
            lines.append(
                f"{c.name}\t{c.params}\t{c.identity}\t"
                f"{format_float(c.residual)}\t{format_float(c.tolerance)}\t"
                f"{'pass' if c.passed else 'FAIL'}"
            )
        lines.append(f"overall\t\t\t\t\t{'pass' if report.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
    blocks = []
    for c in report.checks:
        blocks.append(
            f"check: {c.name}\n"
            f"params: {c.params}\n"
            f"identity: {c.identity}\n"
            f"residual: {format_float(c.residual)}\n"
            f"tolerance: {format_float(c.tolerance)}\n"
            f"status: {'pass' if c.passed else 'FAIL'}\n"
        )
    blocks.append(f"overall: {'pass' if report.passed else 'FAIL'}\n")
    return "\n".join(blocks)


def _emit(text: str, output: Optional[str]) -> None:
    sys.stdout.write(text)
    if output:
        Path(output).write_text(text)


# --------------------------------------------------------------------------
# handlers


def cmd_generate(args) -> int:
    entries = _resolve_set(args.set_name, args.dim, args.sites, args.normalized)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"set: {args.set_name}")
    print(f"dim: {args.dim}")
    print(f"sites: {_set_sites(args)}")
    print(f"count: {len(entries)}")
    for key, matrix in entries:
        path = out_dir / f"{key}.json"
        save_matrix(path, matrix)
        print(f"wrote: {path} dim={matrix.shape[0]}")
    return EXIT_OK


def cmd_verify(args) -> int:
    dims = (args.dim,) if args.dim is not None else DEFAULT_DIMS
    sites = (args.sites,) if args.sites is not None else DEFAULT_SITES
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = _default_tolerance()  # None keeps per-check defaults
    report = run_verification(dims=dims, sites=sites, tolerance=tolerance)
    _emit(_render_verify(report, args.format), args.output)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_closure(args) -> int:
    if (args.set_name is None) == (args.input is None):
        raise ValueError("closure needs exactly one of --set or --input")
    if args.set_name == "qft":
        raise ValueError("closure needs a generator set, not a single gate")
    if args.set_name is not None:
        sites = _set_sites(args)
        dim = _power_within(args.dim, sites, args.max_dim)
        if dim is None:
            raise ValueError(
                f"l^n = {_power_text(args.dim, sites)} exceeds the cap {args.max_dim}; "
                "pass --max-dim to run larger closures"
            )
        if args.set_name == "qudit-universal" and args.dim == 2:
            n = args.sites
            print(
                f"note: at l=2 qudit-universal spans so(2n+1) = so({2 * n + 1}), "
                f"of dimension {n * (2 * n + 1)}; this is all of su(2^n) only at n=1",
                file=sys.stderr,
            )
        if args.set_name in _EXTRA_SETS:
            matrices = [m for _, m in _resolve_set(args.set_name, args.dim, sites, normalized=False)]
        else:
            # a named set reaches closure as its Weyl terms (see prepare_generators);
            # binding here also makes an unknown name the usage error it raises
            _bind(("clifford",))
            matrices = named_generator_set(args.set_name, args.dim, args.sites)
        set_label = args.set_name
    else:
        matrices = _load_matrix_set(args.input)
        dim = matrices[0].shape[0]
        if dim > args.max_dim:
            raise ValueError(
                f"matrix dimension {dim} exceeds the cap {args.max_dim}; "
                "pass --max-dim to run larger closures"
            )
        set_label = args.input
    tol = _resolve_tolerance(args)
    gen = prepare_generators(matrices, args.mode, name=set_label)
    del matrices  # the closure runs beside the prepared set alone, not its inputs too
    result = closure(gen, tol=tol)
    pairs = [
        ("report", "closure"),
        ("set", set_label),
        ("mode", args.mode),
        ("dim", str(dim)),
        ("target-dim", str(result.target_dim)),
        ("achieved-dim", str(result.achieved_dim)),
        ("rounds", str(result.rounds)),
        ("tolerance", format_float(result.tolerance_used)),
        ("universal", "true" if result.universal else "false"),
    ]
    _emit(_render_pairs(pairs, args.format), args.output)
    if args.dump_basis:
        basis_dir = Path(args.dump_basis)
        basis_dir.mkdir(parents=True, exist_ok=True)
        width = max(3, len(str(result.achieved_dim)))
        # a monomial result builds each matrix as it is reached, so one is held at a time
        for i, b in enumerate(result.basis):
            save_matrix(basis_dir / f"basis-{i:0{width}d}.json", b)
    if args.expect_universal and not result.universal:
        print(
            f"expectation failed: achieved {result.achieved_dim} of "
            f"{result.target_dim}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    return EXIT_OK


def _power_within(l: int, n: int, cap: int) -> Optional[int]:
    """``l**n`` if it is at most ``cap``, else None, found without forming a larger power."""
    power = 1
    for _ in range(n):
        power *= l
        if power > cap:
            return None
    return power


def _power_text(l: int, n: int) -> str:
    """``l**n`` in decimal, or ``"l^n"`` past 4300 digits, the most CPython
    prints by default (``sys.int_info.default_max_str_digits``)."""
    if n * math.log10(l) < 4300:
        return str(l**n)
    return f"{l}^{n}"


def cmd_decompose(args) -> int:
    matrix = load_matrix(args.input)
    l = matrix.shape[0]
    if args.dim is not None and args.dim != l:
        raise FormatError(f"matrix dimension {l} does not match --dim {args.dim}")
    if l < 2:
        raise FormatError("decomposition needs dimension >= 2")
    import numpy as np  # loaded with serialize; this module imports it for type checking only

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        table = weyl_decompose(matrix, l)
        residual = max_abs(weyl_reconstruct(table) - matrix)
    largest = max_abs(table)
    if not (math.isfinite(residual) and math.isfinite(largest)):
        raise ValueError(
            f"{args.input}: the Weyl coefficients or their reconstruction overflow the double range"
        )
    pairs = [("report", "decompose"), ("l", str(l)),
             ("reconstruction-residual", format_float(residual))]
    lines = _render_pairs(pairs, args.format)
    # relative to the largest coefficient, so rounding dust of a large-norm
    # input is not printed as a coefficient
    threshold = 1e-15 * max(1.0, largest)
    body: List[str] = []
    for a in range(l):
        for b in range(l):
            c = table[a, b]
            if abs(c) > threshold:
                body.append(
                    f"coefficient: a={a} b={b} re={format_float(c.real)} "
                    f"im={format_float(c.imag)}"
                )
    text = lines + ("\n".join(body) + "\n" if body else "")
    sys.stdout.write(text)
    if args.output:
        save_weyl_coefficients(args.output, table)
        print(f"wrote: {args.output}")
    return EXIT_OK


def cmd_qft(args) -> int:
    matrix = qft_matrix(args.dim, normalized=args.normalized)
    if args.output:
        save_matrix(args.output, matrix)
        print(f"wrote: {args.output} dim={args.dim}")
        return EXIT_OK
    sys.stdout.write(_render_matrix(matrix, args.format))
    return EXIT_OK


def _render_matrix(matrix: np.ndarray, fmt: str) -> str:
    d = matrix.shape[0]
    if fmt == "tabular":
        rows = []
        for i in range(d):
            rows.append(
                "\t".join(
                    f"{format_float(z.real)}{'+' if z.imag >= 0 else '-'}"
                    f"{format_float(abs(z.imag))}j"
                    for z in matrix[i]
                )
            )
        return "\n".join(rows) + "\n"
    lines = [f"dim: {d}"]
    for i in range(d):
        entries = " ".join(
            f"({format_float(z.real)}, {format_float(z.imag)})" for z in matrix[i]
        )
        lines.append(f"row {i}: {entries}")
    return "\n".join(lines) + "\n"


def _parse_site_list(text: str) -> List[int]:
    try:
        sites = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise FormatError(f"bad site list {text!r}") from exc
    if not sites:
        raise FormatError(f"bad site list {text!r}")
    return sites


def cmd_apply(args) -> int:
    state = load_state(args.input)
    if args.gate is not None:
        gate_matrix = load_matrix(args.gate)
    elif args.set_name == "qft":
        l = args.dim if args.dim is not None else state.l
        gate_matrix = qft_matrix(l, normalized=args.normalized)
    elif args.set_name is not None:
        raise ValueError(f"apply supports --set qft only, got {args.set_name!r}")
    else:
        raise ValueError("apply needs --gate FILE or --set qft")

    print(f"norm-before: {format_float(state.norm())}")
    if args.sites is not None:
        sites = _parse_site_list(args.sites)
        gate = GateSpec(state.l, gate_matrix, tuple(sites))
        result = apply_kgate(gate, state)
    else:
        result = apply_full(gate_matrix, state)
    print(f"norm-after: {format_float(result.norm())}")
    if args.output:
        save_state(args.output, result)
        print(f"wrote: {args.output}")
    else:
        for idx, z in enumerate(result.amplitudes):
            print(
                f"amplitude {idx}: ({format_float(z.real)}, {format_float(z.imag)})"
            )
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
