"""Command-line front door.

Subcommands: ml-eval, op-coeffs, apply, check, extremal, reconstruct,
boundary-curve.  Exit codes: 0 success/member, 1 non-member, 2 a usage,
parse or numeric error (one line on stderr) or any other (a traceback).
Output is byte-deterministic for fixed arguments: floats are printed in
their shortest round-trip form, CSV numbers with 17 significant digits.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys
from typing import Optional

import numpy as np

from .errors import InconclusiveError
from .integral_repr import SchwarzSpec, reconstruct_f
from .laurent import SigmaSeries
from .membership import (
    ClassSpec,
    GridSpec,
    JanowskiTheta,
    MembershipReport,
    check_alexander,
    check_convolution,
    check_direct,
    extremal_function,
    phase_grid,
    region_margins,
)
from .operator import apply_operator, build_kernel, max_kernel_order
from .special_fn import BMLParams, barnes_ml


class CLIError(Exception):
    """Usage or input error surfaced as a one-line diagnostic, exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise CLIError(f"complex values are written re,im - got {text!r}")
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise CLIError(f"complex values are written re,im - got {text!r}") from None
    if not cmath.isfinite(value):
        raise CLIError(f"non-finite complex value {text!r}")
    return value


def _parse_float_list(text: str) -> list:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise CLIError(f"expected a comma-separated list of numbers, got {text!r}") from None


_BUILTIN_KEYS = {"extremal": {"alpha": float, "lambda": float, "N": int}}


def parse_function_spec(text: str) -> SigmaSeries:
    """Parse the function-spec grammar into a series.

    One directive per line: ``principal <re> <im>``, ``coef <n> <re> <im>``
    (n >= 1), or ``builtin <name> key=value ...``; ``#`` starts a comment.
    A builtin line must stand alone.  The principal defaults to 1.
    """
    principal: Optional[complex] = None
    coeffs: dict = {}
    builtin: Optional[SigmaSeries] = None

    def bail(lineno, msg):
        raise CLIError(f"function spec line {lineno}: {msg}")

    def number(lineno, token):
        try:
            v = float(token)
        except ValueError:
            bail(lineno, f"bad number {token!r}")
        if not math.isfinite(v):
            bail(lineno, f"non-finite value {token!r}")
        return v

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "principal":
            if len(parts) != 3:
                bail(lineno, "expected: principal <re> <im>")
            if principal is not None:
                bail(lineno, "duplicate principal directive")
            principal = complex(number(lineno, parts[1]), number(lineno, parts[2]))
        elif parts[0] == "coef":
            if len(parts) != 4:
                bail(lineno, "expected: coef <n> <re> <im>")
            try:
                n = int(parts[1])
            except ValueError:
                bail(lineno, f"bad coefficient index {parts[1]!r}")
            if n < 1:
                bail(lineno, f"coefficient index must be >= 1, got {n}")
            if n in coeffs:
                bail(lineno, f"duplicate coefficient index {n}")
            coeffs[n] = complex(number(lineno, parts[2]), number(lineno, parts[3]))
        elif parts[0] == "builtin":
            if len(parts) < 2:
                bail(lineno, "expected: builtin <name> key=value ...")
            name = parts[1]
            if name not in _BUILTIN_KEYS:
                bail(lineno, f"unknown builtin {name!r}")
            if builtin is not None:
                bail(lineno, "only one builtin line is allowed")
            schema = _BUILTIN_KEYS[name]
            kwargs = {}
            for item in parts[2:]:
                if "=" not in item:
                    bail(lineno, f"expected key=value, got {item!r}")
                key, _, val = item.partition("=")
                if key not in schema:
                    bail(lineno, f"unknown key {key!r} for builtin {name!r}")
                if key in kwargs:
                    bail(lineno, f"duplicate key {key!r}")
                try:
                    kwargs[key] = schema[key](val)
                except ValueError:
                    bail(lineno, f"bad value {val!r} for key {key!r}")
            missing = set(schema) - set(kwargs)
            if missing:
                bail(lineno, f"builtin {name!r} missing keys: {sorted(missing)}")
            builtin = extremal_function(kwargs["alpha"], kwargs["lambda"], kwargs["N"])
        else:
            bail(lineno, f"unknown directive {parts[0]!r}")

    if builtin is not None:
        if principal is not None or coeffs:
            raise CLIError("a builtin line cannot be mixed with explicit coefficients")
        return builtin
    order = max(coeffs) if coeffs else 0
    tail = np.zeros(order, dtype=complex)
    for n, c in coeffs.items():
        tail[n - 1] = c
    return SigmaSeries(1.0 if principal is None else principal, tail)


def _read_spec(path: str) -> SigmaSeries:
    if path == "-":
        return parse_function_spec(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_function_spec(fh.read())
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_complex(value: complex) -> str:
    value = complex(value)
    if value.imag == 0.0:
        return _fmt(value.real)
    return f"{_fmt(value.real)},{_fmt(value.imag)}"


def _csv(value: float) -> str:
    return f"{float(value):.17g}"


def _emit(lines, out_path: Optional[str]):
    payload = "".join(line + "\n" for line in lines)
    if out_path is None:
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)


def _series_lines(f: SigmaSeries) -> list:
    lines = [f"principal {_fmt(f.principal.real)} {_fmt(f.principal.imag)}"]
    for n in range(1, f.order + 1):
        c = f.coefficient(n)
        lines.append(f"coef {n} {_fmt(c.real)} {_fmt(c.imag)}")
    return lines


def _report_lines(rep: MembershipReport) -> list:
    lines = [
        f"verdict={rep.verdict}",
        f"margin={_fmt(rep.margin)}",
        f"witness_z={_fmt_complex(rep.witness_z)}",
    ]
    if rep.witness_x is not None:
        lines.append(f"witness_x={_fmt_complex(rep.witness_x)}")
    lines.append(f"method={rep.method}")
    lines.append(f"skipped={rep.skipped}")
    return lines


# ---------------------------------------------------------------------------
# shared argument groups


def _add_params(p: argparse.ArgumentParser):
    p.add_argument("--K", type=float, default=1.0, help="order parameter (default 1)")
    p.add_argument("--theta", type=float, default=1.0, help="shift parameter (default 1)")
    p.add_argument("--a", type=float, default=1.0, help="Barnes shift (default 1)")
    p.add_argument("--s", type=float, default=0.0, help="Barnes exponent (default 0)")


def _add_class(p: argparse.ArgumentParser):
    p.add_argument("--A", type=float, default=1.0, help="Möbius numerator slope (default 1)")
    p.add_argument("--B", type=float, default=-1.0, help="Möbius denominator slope (default -1)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="spiral angle (default 0)")


def _add_grid(p: argparse.ArgumentParser):
    p.add_argument("--rmax", type=float, default=0.99, help="largest sampled radius (default 0.99)")
    p.add_argument("--radii", type=int, default=12, help="sampled radii of boundary-curve; the "
                   "checks sample only |z| = rmax (default 12)")
    p.add_argument("--angles", type=int, default=256, help="samples per circle (default 256)")
    p.add_argument("--xsamples", type=int, default=512, help="accepted for compatibility and "
                   "validated (at least 8), but changes no result: the convolution checks "
                   "minimise over the direction without sampling it (default 512)")
    p.add_argument("--delta", type=float, default=1e-9, help="non-vanishing threshold (default 1e-9)")


def _params_of(args) -> BMLParams:
    return BMLParams(args.K, args.theta, args.a, args.s)


def _grid_of(args) -> GridSpec:
    if args.radii < 1:
        raise CLIError(f"--radii must be at least 1, got {args.radii}")
    radii = tuple(args.rmax * (k / args.radii) for k in range(1, args.radii + 1))
    return GridSpec(
        radii=radii,
        r_max=args.rmax,
        angles=args.angles,
        boundary_x=args.xsamples,
        min_modulus=args.delta,
    )


def _kernel_order(order: int, params: BMLParams, name: str) -> int:
    """`order`, if the kernel weights reach it inside the Gamma range."""
    if order > (top := max_kernel_order(params)):
        raise CLIError(
            f"{name} {order} exceeds {top}, the largest order in the Gamma range at {params}"
        )
    return order


def _class_of(args, kind: str) -> ClassSpec:
    return ClassSpec(args.lam, JanowskiTheta(args.A, args.B), kind, _params_of(args))


_KINDS = {"spiral": "spirallike", "convex": "convex"}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ml_eval(args) -> int:
    value = barnes_ml(_params_of(args), _parse_complex(args.z))
    _emit([_fmt_complex(value)], None)
    return 0


def _cmd_op_coeffs(args) -> int:
    kernel = build_kernel(_params_of(args), args.N)
    lines = ["n,h"] + [f"{n + 1},{_csv(h)}" for n, h in enumerate(kernel.h)]
    _emit(lines, args.out)
    return 0


def _cmd_apply(args) -> int:
    f = _read_spec(args.function)
    params = _params_of(args)
    order = max(1, _kernel_order(f.order, params, "the spec's order"))
    result = apply_operator(f, build_kernel(params, order))
    _emit(_series_lines(result), args.out)
    return 0


def _cmd_check(args) -> int:
    f = _read_spec(args.function)
    spec = _class_of(args, _KINDS[args.cls])
    grid = _grid_of(args)
    if args.method == "direct":
        rep = check_direct(f, spec, grid)
    elif args.method == "alexander":
        rep = check_alexander(f, spec, grid)
    else:
        rep = check_convolution(f, spec, grid, which=args.method.replace("conv-", ""))
    _emit(_report_lines(rep), None)
    return 0 if rep.is_member else 1


def _cmd_extremal(args) -> int:
    _emit(_series_lines(extremal_function(args.alpha, args.lam, args.N)), args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    omega = SchwarzSpec(tuple(_parse_float_list(args.omega)))
    spec = _class_of(args, _KINDS[args.kind])
    params = _params_of(args)
    kernel = build_kernel(params, _kernel_order(args.N, params, "--N"))
    f = reconstruct_f(spec, omega, kernel, args.N, _KINDS[args.kind])
    _emit(_series_lines(f), args.out)
    return 0


def _cmd_boundary_curve(args) -> int:
    f = _read_spec(args.function)
    spec = _class_of(args, _KINDS[args.cls])
    grid = _grid_of(args)
    zs = grid.z_points()
    q, skip, *_ = phase_grid(f, spec, zs, grid.min_modulus)
    margins = region_margins(spec, q)
    lines = ["r,theta,q_re,q_im,inside"]
    for i, z in enumerate(zs):
        if skip[i]:
            continue
        lines.append(
            f"{_csv(abs(z))},{_csv(math.atan2(z.imag, z.real))},"
            f"{_csv(q[i].real)},{_csv(q[i].imag)},{1 if margins[i] > 0 else 0}"
        )
    _emit(lines, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    parser = _Parser(prog="bml", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ml-eval", parents=[], help="evaluate the four-parameter series")
    _add_params(p)
    p.add_argument("--z", required=True, help="evaluation point as re,im")
    p.set_defaults(func=_cmd_ml_eval)

    p = sub.add_parser("op-coeffs", help="emit the operator weights h_1..h_N as CSV")
    _add_params(p)
    p.add_argument("--N", type=int, default=64, help="number of weights (default 64)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_op_coeffs)

    p = sub.add_parser("apply", help="apply the operator to a function-spec file")
    p.add_argument("function", help="function-spec file, or - for stdin")
    _add_params(p)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("check", help="decide class membership of a function-spec file")
    p.add_argument("function", help="function-spec file, or - for stdin")
    p.add_argument("--class", dest="cls", choices=sorted(_KINDS), default="spiral")
    p.add_argument(
        "--method",
        choices=["direct", "conv-t1", "conv-t2", "alexander"],
        default="direct",
    )
    _add_class(p)
    _add_params(p)
    _add_grid(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("extremal", help="emit the boundary-hugging member as a spec file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--N", type=int, default=64, help="truncation order (default 64)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("reconstruct", help="rebuild a member from Schwarz coefficients")
    p.add_argument("--omega", required=True, help="Schwarz coefficients w1,w2,... (reals)")
    p.add_argument("--kind", choices=sorted(_KINDS), default="spiral")
    _add_class(p)
    _add_params(p)
    p.add_argument("--N", type=int, default=64, help="truncation order (default 64)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("boundary-curve", help="emit phase-ratio samples as CSV")
    p.add_argument("function", help="function-spec file, or - for stdin")
    p.add_argument("--class", dest="cls", choices=sorted(_KINDS), default="spiral")
    _add_class(p)
    _add_params(p)
    _add_grid(p)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_boundary_curve)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CLIError, ValueError, ArithmeticError, RuntimeError) as exc:
        prefix = "inconclusive: " if isinstance(exc, InconclusiveError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 2


def run(argv=None):
    """The `bml` command: `main`, flushed stdout and stderr, then `os._exit`,
    skipping the interpreter's teardown and `atexit` handlers.  An `Exception`
    from either exits 2 (not 1, "non-member") after its traceback."""
    try:
        code = main(argv)
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.excepthook(*sys.exc_info())  # the interpreter's report of an uncaught exception
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
