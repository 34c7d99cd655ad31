"""Batch command-line front end ``mpshift``.

Subcommands: ``fixture`` (write a built-in example), ``eig`` (eigenvalues),
``shift`` (all shift variants, always re-validated by the determinant-ratio
oracle), ``factor`` (canonical factorizations), ``solve`` (unilateral matrix
equations, optionally shift-accelerated), and ``check`` (standalone oracle).

Exit codes: 0 success, 1 numeric failure (including an oracle FAIL),
2 usage or parse error.  All output is deterministic given the inputs and
``--seed``; numbers print with shortest round-trip decimals.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import fixtures
from .core import (
    INF,
    det_ratio_oracle,
    evaluate,
    is_infinite,
    read_poly,
    unit_vector,
    write_poly,
)
from .equations import shift_accelerated_solve, solve_unilateral
from .errors import (
    DimensionMismatch,
    MpshiftError,
    ParseError,
    UnknownFixture,
)
from .factorizations import (
    cr_quadratic,
    poly_factorization,
    reversed_factorization,
)
from .shifts import (
    MultiShiftSpec,
    ShiftSpec,
    double_shift_laurent,
    left_shift_poly,
    multishift_poly,
    palindromic_shift,
    right_shift_poly,
    shift_from_infinity,
    shift_to_infinity,
)
from .spectra import polyeig, refine_pair

ORACLE_SAMPLES = 16


class UsageError(Exception):
    """Flag conflicts and malformed command-line values (exit code 2)."""


_COMPLEX_RE = re.compile(
    r"""^\s*(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
         (?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?\s*$""",
    re.VERBOSE,
)


def parse_complex(text):
    """Parse ``RE`` or ``RE+IMi`` / ``RE-IMi`` literals (also ``inf``)."""
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return complex(math.inf, 0.0)
    m = _COMPLEX_RE.match(text)
    if not m:
        raise UsageError(f"cannot parse complex literal {text!r}")
    return complex(float(m.group("re")), float(m.group("im") or 0.0))


def parse_vector(text, n):
    parts = [s for s in text.split(",") if s.strip()]
    if len(parts) != n:
        raise UsageError(f"vector {text!r} has {len(parts)} components, expected {n}")
    vec = np.array([parse_complex(s) for s in parts], dtype=complex)
    if not vec.any():
        raise UsageError(f"vector {text!r} is zero")
    return vec


def fmt_float(x):
    return repr(float(x))


def fmt_complex(z):
    if is_infinite(z):
        return "Inf"
    re_part = fmt_float(z.real)
    im = float(z.imag)
    sign = "+" if (im > 0 or (im == 0 and not math.copysign(1.0, im) < 0)) else "-"
    return f"{re_part}{sign}{fmt_float(abs(im))}i"


def fmt_matrix(mat, indent="  "):
    lines = []
    for row in np.asarray(mat):
        lines.append(indent + "  ".join(fmt_complex(v) for v in row))
    return "\n".join(lines)


def matrix_json(mat):
    """A complex array as nested lists with each entry a [re, im] pair of floats."""
    mat = np.ascontiguousarray(mat, dtype=complex)
    return mat.view(float).reshape(*mat.shape, 2).tolist()


def _auto_right_vector(p, lam):
    if is_infinite(lam):
        mat = p.coeffs[-1]
    else:
        mat = evaluate(p, lam)
    return unit_vector(np.linalg.svd(mat)[2][-1].conj())


def _auto_left_vector(p, lam):
    mat = evaluate(p, lam)
    return unit_vector(np.linalg.svd(mat)[0][:, -1])


def _vector_arg(text, p, lam, side="right"):
    if text == "auto":
        return _auto_right_vector(p, lam) if side == "right" else _auto_left_vector(p, lam)
    return parse_vector(text, p.n)


def _dual_arg(text, n):
    """A dual vector flag; 'auto' leaves it to the default (the shift vector itself)."""
    return None if text == "auto" else parse_vector(text, n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fixture(args):
    poly = fixtures.fixture(args.name)
    out = args.output or f"{args.name}.mp.json"
    write_poly(poly, out)
    if args.format == "json":
        print(json.dumps({"command": "fixture", "name": args.name, "output": out}))
    else:
        print(f"wrote fixture {args.name} (n={poly.n}, degree {poly.d}) to {out}")
    return 0


def cmd_eig(args):
    poly = read_poly(args.input)
    if poly.lo != 0:
        raise UsageError("eig expects a matrix polynomial file (lo == 0)")
    spec = polyeig(poly, seed=args.seed, want_left=args.left)
    if args.format == "json":
        rows = []
        for q in spec.pairs:
            rows.append(
                {
                    "value": "inf" if q.is_infinite else [q.value.real, q.value.imag],
                    "residual": q.residual,
                    "borderline": q.borderline,
                    "right": matrix_json(q.right),
                    "left": None if q.left is None else matrix_json(q.left),
                }
            )
        print(json.dumps({"command": "eig", "eigenvalues": rows}))
    else:
        print(f"{'value':<48} {'modulus':<24} residual")
        for q in spec.pairs:
            mod = "Inf" if q.is_infinite else fmt_float(abs(q.value))
            flag = " (borderline)" if q.borderline else ""
            print(f"{fmt_complex(q.value):<48} {mod:<24} {q.residual:.3e}{flag}")
    return 0


def _shift_mode(args):
    modes = [
        ("double", args.double),
        ("multi", args.multi is not None),
        ("from-inf", args.from_inf),
        ("to-inf", args.to_inf),
        ("palindromic", args.palindromic),
    ]
    active = [name for name, on in modes if on]
    if len(active) > 1:
        raise UsageError(f"conflicting shift modes: {', '.join(active)}")
    return active[0] if active else "single"


_FLAG_DEST = {"lambda": "lam", "lambda2": "lam2", "mu": "mu", "mu2": "mu2"}


def _require(args, names, mode):
    for name in names:
        if getattr(args, _FLAG_DEST[name], None) is None:
            raise UsageError(f"--{name} is required for {mode} shifts")


# Each shift handler returns (shifted, removed, added, fit_constant, mode note).

def _shift_single(args, poly):
    lam, mu = args.lam, args.mu
    if is_infinite(lam) or is_infinite(mu):
        if poly.lo != 0:
            raise UsageError("infinity shifts need a matrix polynomial input")
        handler = _shift_from_inf if is_infinite(lam) else _shift_to_inf
        shifted, removed, added, fit_constant, _ = handler(args, poly)
        return shifted, removed, added, fit_constant, "single (routed to infinity shift)"
    if args.side == "right":
        spec = ShiftSpec(lam, mu, _vector_arg(args.u, poly, lam), _dual_arg(args.v, poly.n))
        shifted = right_shift_poly(poly, spec)
    else:
        v = _vector_arg(args.v, poly, lam, "left")
        spec = ShiftSpec(lam, mu, v, _dual_arg(args.u, poly.n), side="left")
        shifted = left_shift_poly(poly, spec)
    if mu == lam:
        print("warning: mu equals lambda; the shift is a no-op", file=sys.stderr)
    return shifted, [lam], [mu], False, f"single {args.side}"


def _shift_double(args, poly):
    l1, m1, l2, m2 = args.lam, args.mu, args.lam2, args.mu2
    rspec = ShiftSpec(l1, m1, _vector_arg(args.u, poly, l1, "right"), side="right")
    lspec = ShiftSpec(l2, m2, _vector_arg(args.v, poly, l2, "left"), side="left")
    return double_shift_laurent(poly, rspec, lspec), [l1, l2], [m1, m2], False, "double"


def _shift_multi(args, poly):
    with open(args.multi, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.multi}: {exc.msg} at line {exc.lineno}") from exc
    try:
        lams = [parse_complex(str(s)) for s in payload["lambdas"]]
        targets = [parse_complex(str(s)) for s in payload["targets"]]
    except KeyError as exc:
        raise ParseError(f"{args.multi}: missing key {exc}") from exc
    if len(lams) != len(targets) or not lams:
        raise ParseError("lambdas and targets must be equal-length non-empty lists")
    cols = [refine_pair(poly, lam, _auto_right_vector(poly, lam)).right for lam in lams]
    ms = MultiShiftSpec(np.column_stack(cols), np.diag(lams), np.diag(targets))
    return multishift_poly(poly, ms), lams, targets, False, f"multishift m={len(lams)}"


def _shift_from_inf(args, poly):
    u = _vector_arg(args.u, poly, INF)
    shifted = shift_from_infinity(poly, args.mu, u, _dual_arg(args.v, poly.n))
    return shifted, [], [args.mu], True, "from infinity"


def _shift_to_inf(args, poly):
    u = _vector_arg(args.u, poly, args.lam)
    shifted = shift_to_infinity(poly, args.lam, u, _dual_arg(args.v, poly.n))
    return shifted, [args.lam], [], True, "to infinity"


def _shift_palindromic(args, poly):
    lam, mu = args.lam, args.mu
    shifted = palindromic_shift(poly, lam, mu, _vector_arg(args.u, poly, lam))
    removed = [lam] + ([1.0 / lam.conjugate()] if lam != 0 else [])
    added = [mu] + ([1.0 / mu.conjugate()] if mu != 0 else [])
    return shifted, removed, added, True, "palindromic"


# mode -> (handler, required flags, matrix polynomial input only)
SHIFT_MODES = {
    "single": (_shift_single, ("lambda", "mu"), False),
    "double": (_shift_double, ("lambda", "mu", "lambda2", "mu2"), False),
    "multi": (_shift_multi, (), False),
    "from-inf": (_shift_from_inf, ("mu",), True),
    "to-inf": (_shift_to_inf, ("lambda",), True),
    "palindromic": (_shift_palindromic, ("lambda", "mu"), True),
}


def cmd_shift(args):
    poly = read_poly(args.input)
    mode = _shift_mode(args)
    handler, required, poly_only = SHIFT_MODES[mode]
    if poly_only and poly.lo != 0:
        raise UsageError(f"{mode} shifts need a matrix polynomial input")
    _require(args, required, mode)
    shifted, removed, added, fit_constant, mode_note = handler(args, poly)
    write_poly(shifted, args.output)
    report = det_ratio_oracle(
        poly,
        shifted,
        removed=removed,
        added=added,
        samples=ORACLE_SAMPLES,
        seed=args.seed,
        fit_constant=fit_constant,
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "command": "shift",
                    "mode": mode_note,
                    "output": args.output,
                    "oracle": {
                        "passed": report.passed,
                        "max_rel_err": report.max_rel_err,
                        "samples": report.samples,
                    },
                }
            )
        )
    else:
        print(f"shift mode: {mode_note}")
        print(f"wrote {args.output}")
        print(f"oracle: {report}")
    if not report.passed:
        print(
            f"error: determinant-ratio oracle FAILED (max rel err {report.max_rel_err:.3e})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_factor(args):
    poly = read_poly(args.input)
    payload = {"command": "factor"}
    if args.quad:
        if (poly.lo, poly.hi) != (-1, 1):
            raise UsageError("--quad expects a Laurent polynomial with powers -1..1")
        f = cr_quadratic(
            poly.coeff(-1), poly.coeff(0), poly.coeff(1), tol=args.tol, maxit=args.maxit
        )
        payload.update(
            {
                "iterations": f.iterations,
                "residual": f.residual,
                "rho_g": f.rho_g,
                "rho_r": f.rho_r,
                "gplus": matrix_json(f.gplus),
                "rplus": matrix_json(f.rplus),
                "kplus": matrix_json(f.kplus),
            }
        )
        if args.format != "json":
            print(f"cyclic reduction: {f.iterations} iterations, residual {f.residual:.3e}")
            print(f"rho(G+) = {fmt_float(f.rho_g)}, rho(R+) = {fmt_float(f.rho_r)}")
            for name, mat in (("G+", f.gplus), ("R+", f.rplus), ("K+", f.kplus)):
                print(f"{name} =")
                print(fmt_matrix(mat))
        if args.both:
            rf = reversed_factorization(poly.coeff(-1), poly.coeff(0), poly.coeff(1), f)
            payload.update(
                {
                    "gminus": matrix_json(rf.gminus),
                    "rminus": matrix_json(rf.rminus),
                    "kminus": matrix_json(rf.kminus),
                    "w": matrix_json(rf.w),
                    "reversed_residual": rf.residual,
                }
            )
            if args.format != "json":
                print(f"reversed factorization residual {rf.residual:.3e}")
                for name, mat in (
                    ("G-", rf.gminus),
                    ("R-", rf.rminus),
                    ("K-", rf.kminus),
                    ("W", rf.w),
                ):
                    print(f"{name} =")
                    print(fmt_matrix(mat))
    else:
        if poly.lo != 0:
            raise UsageError("factoring a Laurent polynomial requires --quad")
        if args.both:
            raise UsageError("--both applies to --quad factorizations only")
        rep = solve_unilateral(poly, tol=args.tol, maxit=args.maxit, seed=args.seed)
        pf = poly_factorization(poly, rep.g)
        payload.update(
            {
                "iterations": rep.iterations,
                "residual": rep.residual,
                "g": matrix_json(pf.g),
                "ucoeffs": [matrix_json(c) for c in pf.ucoeffs],
            }
        )
        if args.format != "json":
            print(
                f"minimal solvent via cyclic reduction: {rep.iterations} iterations, "
                f"residual {rep.residual:.3e}"
            )
            print("G =")
            print(fmt_matrix(pf.g))
            for i, c in enumerate(pf.ucoeffs):
                print(f"U{i} =")
                print(fmt_matrix(c))
    if args.format == "json":
        print(json.dumps(payload))
    return 0


def cmd_solve(args):
    poly = read_poly(args.input)
    if poly.lo != 0:
        raise UsageError("solve expects a matrix polynomial file (lo == 0)")
    if args.shift is not None:
        parts = args.shift.split(",")
        if not 1 <= len(parts) <= 2:
            raise UsageError("--shift expects LAMBDA or LAMBDA,MU")
        lam = parse_complex(parts[0])
        mu = parse_complex(parts[1]) if len(parts) == 2 else 0.0 + 0.0j
        u = _vector_arg(args.u, poly, lam)
        v = _dual_arg(args.v, poly.n)
        rep = shift_accelerated_solve(
            poly, lam, u, v, mu, tol=args.tol, maxit=args.maxit, seed=args.seed
        )
    else:
        rep = solve_unilateral(
            poly, method=args.method, tol=args.tol, maxit=args.maxit, seed=args.seed
        )
    payload = {
        "command": "solve",
        "iterations": rep.iterations,
        "residual": rep.residual,
        "sigma": None if math.isnan(rep.sigma) else rep.sigma,
        "shifted": rep.shifted,
        "g": matrix_json(rep.g),
    }
    if rep.shifted:
        lam, mu, _ = rep.recovery
        payload["recovery"] = {
            "lambda": [lam.real, lam.imag],
            "mu": [mu.real, mu.imag],
        }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        sigma = "n/a" if math.isnan(rep.sigma) else fmt_float(rep.sigma)
        print(f"iterations: {rep.iterations}")
        print(f"residual:   {rep.residual:.3e}")
        print(f"sigma:      {sigma}")
        if rep.shifted:
            lam, mu, _ = rep.recovery
            print(
                f"recovered from shifted equation ({fmt_complex(lam)} -> {fmt_complex(mu)}); "
                f"original-equation residual verified"
            )
        print("G =")
        print(fmt_matrix(rep.g))
    return 0


def cmd_check(args):
    a = read_poly(args.a)
    b = read_poly(args.b)
    removed = [parse_complex(s) for s in args.removed.split(",") if s.strip()]
    added = [parse_complex(s) for s in args.added.split(",") if s.strip()]
    report = det_ratio_oracle(
        a,
        b,
        removed=removed,
        added=added,
        samples=args.samples,
        seed=args.seed,
        fit_constant=args.fit_constant,
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "command": "check",
                    "passed": report.passed,
                    "max_rel_err": report.max_rel_err,
                    "samples": report.samples,
                }
            )
        )
    else:
        print(f"oracle: {report}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    sub.add_argument("--tol", type=float, default=1e-14, help="iteration tolerance")
    sub.add_argument(
        "--format", choices=("table", "json"), default="table", help="report format"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mpshift",
        description="Eigenvalue shifts, factorizations, and equation solvers "
        "for matrix polynomials (.mp.json files)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("fixture", help="write a built-in example polynomial")
    sp.add_argument("name", choices=sorted(fixtures.FIXTURES), help="fixture name")
    sp.add_argument("-o", "--output", default=None, help="output path (default NAME.mp.json)")
    _add_common(sp)
    sp.set_defaults(func=cmd_fixture)

    sp = subs.add_parser("eig", help="eigenvalues sorted by modulus, infinity last")
    sp.add_argument("input")
    sp.add_argument("--left", action="store_true", help="also compute left eigenvectors")
    _add_common(sp)
    sp.set_defaults(func=cmd_eig)

    sp = subs.add_parser("shift", help="apply an eigenvalue shift (oracle-checked)")
    sp.add_argument("input")
    sp.add_argument("-o", "--output", required=True, help="output .mp.json path")
    sp.add_argument("--lambda", dest="lam", type=parse_complex, default=None,
                    help="eigenvalue to move (complex literal, or 'inf')")
    sp.add_argument("--mu", type=parse_complex, default=None, help="target value")
    sp.add_argument("--side", choices=("right", "left"), default="right")
    sp.add_argument("--u", default="auto",
                    help="right vector / dual as comma-separated complex, or 'auto'")
    sp.add_argument("--v", default="auto",
                    help="left vector / dual as comma-separated complex, or 'auto'")
    sp.add_argument("--double", action="store_true", help="double shift (right then left)")
    sp.add_argument("--lambda2", dest="lam2", type=parse_complex, default=None,
                    help="left-shift eigenvalue for --double")
    sp.add_argument("--mu2", type=parse_complex, default=None,
                    help="left-shift target for --double")
    sp.add_argument("--multi", default=None,
                    help="JSON file with 'lambdas' and 'targets' lists for a multishift")
    sp.add_argument("--from-inf", dest="from_inf", action="store_true",
                    help="replace an infinite eigenvalue by --mu")
    sp.add_argument("--to-inf", dest="to_inf", action="store_true",
                    help="send --lambda to infinity")
    sp.add_argument("--palindromic", action="store_true",
                    help="structure-preserving shift of the pair (lambda, 1/conj(lambda))")
    _add_common(sp)
    sp.set_defaults(func=cmd_shift)

    sp = subs.add_parser("factor", help="canonical factorization")
    sp.add_argument("input")
    sp.add_argument("--quad", action="store_true",
                    help="quadratic Laurent input: cyclic reduction factorization")
    sp.add_argument("--both", action="store_true",
                    help="also factor A(1/z) (requires --quad)")
    sp.add_argument("--maxit", type=int, default=64)
    _add_common(sp)
    sp.set_defaults(func=cmd_factor)

    sp = subs.add_parser("solve", help="minimal solvent of sum_i A_i X^i = 0")
    sp.add_argument("input")
    sp.add_argument("--shift", default=None, metavar="LAMBDA[,MU]",
                    help="accelerate by shifting LAMBDA to MU (default MU=0) first")
    sp.add_argument("--method", choices=("cr", "eigen"), default="cr")
    sp.add_argument("--maxit", type=int, default=64)
    sp.add_argument("--u", default="auto", help="shift eigenvector (with --shift)")
    sp.add_argument("--v", default="auto", help="shift dual vector (with --shift)")
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = subs.add_parser("check", help="standalone determinant-ratio oracle")
    sp.add_argument("a", help="original polynomial")
    sp.add_argument("b", help="transformed polynomial")
    sp.add_argument("--removed", default="", help="comma-separated removed eigenvalues")
    sp.add_argument("--added", default="", help="comma-separated added eigenvalues")
    sp.add_argument("--samples", type=int, default=ORACLE_SAMPLES)
    sp.add_argument("--fit-constant", dest="fit_constant", action="store_true",
                    help="fit the proportionality constant at one sample")
    _add_common(sp)
    sp.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ParseError, DimensionMismatch, UnknownFixture) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MpshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
