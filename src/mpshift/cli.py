"""Batch command-line front end ``mpshift``.

Each ``cmd_*`` returns one :class:`Report` and prints nothing; :func:`main`
renders it as a table or, with ``--format json``, as one JSON object.  Every
subcommand takes ``--format`` and only the other flags it reads, and a flag
the chosen mode does not read is a usage error:

- ``fixture NAME [-o PATH]``; ``eig INPUT [--left --seed]``;
- ``shift INPUT -o PATH [--seed]`` in one mode: single (``--lambda --mu
  [--side --u --v]``), ``--double`` (``--lambda --mu --lambda2 --mu2 [--u
  --v]``), ``--multi FILE``, ``--from-inf`` (``--mu [--u --v]``),
  ``--to-inf`` (``--lambda [--u --v]``) or ``--palindromic`` (``--lambda
  --mu [--u]``); the determinant-ratio oracle re-checks every result;
- ``factor INPUT [--quad [--both]] [--maxit --tol]``;
- ``solve INPUT [--shift LAMBDA[,MU] [--u --v]] [--method cr|eigen [--seed]]
  [--maxit --tol]``, where ``--shift``, ``--maxit`` and ``--tol`` are read
  by cyclic reduction only and ``--seed`` by ``--method eigen`` only;
  ``factor`` and ``solve`` require a finite ``--tol`` of at least 0 (default
  1e-14) and a ``--maxit`` of at least 1 (default 64);
- ``check A B [--removed --added --samples --fit-constant --seed]``.

Exit codes: 0 success; 2 usage, parse or file error (argparse's own,
``UsageError``, ``ParseError``, ``DimensionMismatch``, ``UnknownFixture``,
any ``OSError`` such as a missing file or a directory given as a file); 1
any other ``MpshiftError`` or a failed oracle.
Errors print one ``error:`` line on stderr.  Warnings, the library's
``warnings.warn`` calls included, print as ``warning:`` lines on stderr on
every call: after the report on success, before the ``error:`` line on
failure.  ``main(argv)`` returns the exit code and can be called repeatedly
in one process; it builds the parser on its first call and reuses it.

JSON keys after ``"command"``: fixture ``name output``; eig ``eigenvalues``,
each ``{value residual borderline right left}``; shift ``mode output oracle``
(``{passed max_rel_err samples}``); factor --quad ``iterations residual rho_g
rho_r gplus rplus kplus``, with --both also ``gminus rminus kminus w
reversed_residual``; factor of a polynomial ``iterations residual g
ucoeffs``; solve ``iterations residual sigma shifted g``, and ``recovery``
(``{lambda mu}``) when shifted; check ``passed max_rel_err samples``.
Matrices are nested lists of ``[re, im]`` pairs.  Output is deterministic
given the inputs and ``--seed``; numbers print with shortest round-trip
decimals.

Rendering costs little more than the float conversions and keeps the bytes:
:func:`report_json` is ``json.dumps(fields, default=matrix_json)`` with each
top-level array filled in as one ``%r`` template for its shape
(:func:`array_json`).  Table matrices print one :func:`fmt_complex` per entry.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .core import (
    INF,
    _json_pairs,
    det_ratio_oracle,
    is_infinite,
    read_poly,
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
)
from .spectra import null_vectors, polyeig, refine_pair

ORACLE_SAMPLES = 16
DEFAULT_SEED = 42
DEFAULT_TOL = 1e-14
DEFAULT_MAXIT = 64


class UsageError(MpshiftError, ValueError):
    """Flag conflicts and malformed command-line values (exit code 2).

    Being a ValueError, one raised by an argparse ``type=`` converter is
    reported by argparse as an invalid value.
    """


USAGE_ERRORS = (UsageError, ParseError, DimensionMismatch, UnknownFixture, OSError)


@dataclass
class Report:
    """One subcommand's result as plain data; :func:`main` prints it.

    ``fields`` are the JSON report's keys after ``"command"``, with numpy
    arrays left as arrays.  ``lines`` are the table's lines; a ``(name,
    matrix)`` pair prints as ``name =`` followed by the matrix.  ``warnings``
    and ``error`` go to stderr.
    """

    fields: dict
    lines: list
    status: int = 0
    error: str | None = None
    warnings: tuple = ()


_COMPLEX_RE = re.compile(
    r"""^\s*(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
         (?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?\s*$""",
    re.VERBOSE,
)


def parse_complex(text):
    """Parse ``RE`` or ``RE+IMi`` / ``RE-IMi`` literals (also ``inf``).

    Only the spelled-out ``inf`` is infinite; a literal beyond double range
    is a UsageError, not a silent infinity.
    """
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return complex(math.inf, 0.0)
    m = _COMPLEX_RE.match(text)
    if not m:
        raise UsageError(f"cannot parse complex literal {text!r}")
    z = complex(float(m.group("re")), float(m.group("im") or 0.0))
    if is_infinite(z):
        raise UsageError(f"complex literal {text!r} is out of double range")
    return z


def parse_vector(text, n):
    parts = [s for s in text.split(",") if s.strip()]
    if len(parts) != n:
        raise UsageError(f"vector {text!r} has {len(parts)} components, expected {n}")
    vec = np.array([parse_complex(s) for s in parts], dtype=complex)
    if not np.isfinite(vec).all():
        raise UsageError(f"vector {text!r} has a non-finite component")
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
    """A complex array as nested lists with each entry a [re, im] pair of floats.

    Also the ``default`` of the JSON report's encoder, so anything that is
    not an array is a TypeError, as ``json`` requires.
    """
    if np.ndim(mat) == 0:
        raise TypeError(f"{type(mat).__name__} is not a matrix")
    mat = np.ascontiguousarray(mat, dtype=complex)
    return mat.view(float).reshape(*mat.shape, 2).tolist()


def array_json(mat):
    """``json.dumps(matrix_json(mat))``, filled in as one ``%r`` template.

    When every imaginary part is a zero of one sign, as for results computed
    from real data, the pair is ``[%r, 0.0]`` (or ``-0.0``) and only the real
    parts are formatted (:func:`~mpshift.core._json_pairs`).  A finite float's
    repr has no ``n``, so an ``n`` in the text means an ``inf`` or ``nan``
    entry, which goes through ``json.dumps`` for its ``Infinity`` and ``NaN``
    spellings.
    """
    mat = np.asarray(mat, dtype=complex)
    imag, floats = _json_pairs(mat)
    leaf = f"[%r, {imag}]"
    for width in reversed(mat.shape):
        leaf = "[" + ", ".join([leaf] * width) + "]"
    text = leaf % tuple(floats)
    return json.dumps(matrix_json(mat)) if "n" in text else text


def report_json(fields):
    """``json.dumps(fields, default=matrix_json)`` for a dict with string keys.

    Each top-level array goes through :func:`array_json`, every other value,
    arrays nested in it included, through ``json.dumps``.
    """
    return "{" + ", ".join(
        f"{json.dumps(key)}: "
        + (array_json(value) if isinstance(value, np.ndarray) and value.ndim
           else json.dumps(value, default=matrix_json))
        for key, value in fields.items()
    ) + "}"


def _vector_arg(text, p, lam, left=False):
    """A shift vector flag; unset or 'auto' takes it from the SVD of A(lam)."""
    if text not in (None, "auto"):
        return parse_vector(text, p.n)
    u, y = null_vectors(p, lam, left)
    return y if left else u


def _dual_arg(text, n):
    """A dual vector flag; unset or 'auto' leaves the default, the shift vector."""
    return None if text in (None, "auto") else parse_vector(text, n)


def _matrices(fields, lines, named):
    """Add ``(key, label, matrix)`` triples to a report's fields and lines."""
    for key, label, mat in named:
        fields[key] = mat
        lines.append((label, mat))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fixture(args):
    poly = fixtures.fixture(args.name)
    out = args.output or f"{args.name}.mp.json"
    write_poly(poly, out)
    return Report(
        {"name": args.name, "output": out},
        [f"wrote fixture {args.name} (n={poly.n}, degree {poly.d}) to {out}"],
    )


def cmd_eig(args):
    poly = read_poly(args.input)
    if poly.lo != 0:
        raise UsageError("eig expects a matrix polynomial file (lo == 0)")
    pairs = polyeig(poly, seed=args.seed, want_left=args.left).pairs
    rows = [
        {
            "value": "inf" if q.is_infinite else [q.value.real, q.value.imag],
            "residual": q.residual,
            "borderline": q.borderline,
            "right": q.right,
            "left": q.left,
        }
        for q in pairs
    ]
    lines = [f"{'value':<48} {'modulus':<24} residual"]
    for q in pairs:
        mod = "Inf" if q.is_infinite else fmt_float(abs(q.value))
        flag = " (borderline)" if q.borderline else ""
        lines.append(f"{fmt_complex(q.value):<48} {mod:<24} {q.residual:.3e}{flag}")
    return Report({"eigenvalues": rows}, lines)


def _shift_mode(args):
    """The SHIFT_MODES entry whose selector flag is set; none selects 'single'."""
    active = [m for m in SHIFT_MODES if m != "single" and getattr(args, m.replace("-", "_"))]
    if len(active) > 1:
        raise UsageError(f"conflicting shift modes: {', '.join(active)}")
    return active[0] if active else "single"


# shift flag -> its attribute on the parsed arguments (None when not given)
_SHIFT_FLAGS = {
    "lambda": "lam", "mu": "mu", "lambda2": "lam2", "mu2": "mu2",
    "side": "side", "u": "u", "v": "v",
}


def _check_flags(args, mode, required, optional):
    given = {name for name, dest in _SHIFT_FLAGS.items() if getattr(args, dest) is not None}
    for name in required:
        if name not in given:
            raise UsageError(f"--{name} is required for {mode} shifts")
    for name in _SHIFT_FLAGS:
        if name in given and name not in required + optional:
            raise UsageError(f"--{name} does not apply to {mode} shifts")


# Each shift handler returns (shifted, removed, added, fit_constant, mode note).

def _shift_single(args, poly):
    """Single shifts; --from-inf and --to-inf are single shifts with lambda or mu infinite."""
    lam = INF if args.from_inf else args.lam
    mu = INF if args.to_inf else args.mu
    side = args.side or "right"
    infinite = is_infinite(lam) or is_infinite(mu)
    if infinite:
        if poly.lo != 0:
            raise UsageError("infinity shifts need a matrix polynomial input")
        if side == "left":
            raise UsageError("--side left does not apply to infinity shifts")
    left = side == "left"
    vector, dual = (args.v, args.u) if left else (args.u, args.v)
    spec = ShiftSpec(lam, mu, _vector_arg(vector, poly, lam, left), _dual_arg(dual, poly.n), side)
    shifted = (left_shift_poly if left else right_shift_poly)(poly, spec)
    if args.from_inf:
        note = "from infinity"
    elif args.to_inf:
        note = "to infinity"
    else:
        note = "single (routed to infinity shift)" if infinite else f"single {side}"
    removed = [] if is_infinite(lam) else [lam]
    added = [] if is_infinite(mu) else [mu]
    return shifted, removed, added, infinite, note


def _shift_double(args, poly):
    l1, m1, l2, m2 = args.lam, args.mu, args.lam2, args.mu2
    rspec = ShiftSpec(l1, m1, _vector_arg(args.u, poly, l1), side="right")
    lspec = ShiftSpec(l2, m2, _vector_arg(args.v, poly, l2, left=True), side="left")
    return double_shift_laurent(poly, rspec, lspec), [l1, l2], [m1, m2], False, "double"


def _shift_multi(args, poly):
    with open(args.multi, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.multi}: {exc.msg} at line {exc.lineno}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{args.multi}: top-level value must be an object")
    try:
        raw = payload["lambdas"], payload["targets"]
    except KeyError as exc:
        raise ParseError(f"{args.multi}: missing key {exc}") from exc
    if not all(isinstance(r, list) for r in raw) or len(raw[0]) != len(raw[1]) or not raw[0]:
        raise ParseError(f"{args.multi}: lambdas and targets must be equal-length non-empty lists")
    lams, targets = ([parse_complex(str(s)) for s in r] for r in raw)
    if any(map(is_infinite, lams + targets)):
        raise ParseError(f"{args.multi}: lambdas and targets must be finite")
    cols = [refine_pair(poly, lam, null_vectors(poly, lam)[0]).right for lam in lams]
    ms = MultiShiftSpec(np.column_stack(cols), np.diag(lams), np.diag(targets))
    return multishift_poly(poly, ms), lams, targets, False, f"multishift m={len(lams)}"


def _shift_palindromic(args, poly):
    lam, mu = args.lam, args.mu
    shifted = palindromic_shift(poly, lam, mu, _vector_arg(args.u, poly, lam))
    removed = [lam] + ([1.0 / lam.conjugate()] if lam != 0 else [])
    added = [mu] + ([1.0 / mu.conjugate()] if mu != 0 else [])
    return shifted, removed, added, True, "palindromic"


# mode -> (handler, required flags, optional flags, matrix polynomial input only)
SHIFT_MODES = {
    "single": (_shift_single, ("lambda", "mu"), ("side", "u", "v"), False),
    "double": (_shift_double, ("lambda", "mu", "lambda2", "mu2"), ("u", "v"), False),
    "multi": (_shift_multi, (), (), False),
    "from-inf": (_shift_single, ("mu",), ("u", "v"), True),
    "to-inf": (_shift_single, ("lambda",), ("u", "v"), True),
    "palindromic": (_shift_palindromic, ("lambda", "mu"), ("u",), True),
}


def cmd_shift(args):
    poly = read_poly(args.input)
    mode = _shift_mode(args)
    handler, required, optional, poly_only = SHIFT_MODES[mode]
    if poly_only and poly.lo != 0:
        raise UsageError(f"{mode} shifts need a matrix polynomial input")
    _check_flags(args, mode, required, optional)
    shifted, removed, added, fit_constant, mode_note = handler(args, poly)
    write_poly(shifted, args.output)
    oracle = _oracle_report(poly, shifted, removed, added, ORACLE_SAMPLES, args.seed, fit_constant)
    report = Report(
        {"mode": mode_note, "output": args.output, "oracle": oracle.fields},
        [f"shift mode: {mode_note}", f"wrote {args.output}", *oracle.lines],
        oracle.status,
    )
    if mode == "single" and removed == added:
        report.warnings = ("mu equals lambda; the shift is a no-op",)
    if oracle.status:
        err = oracle.fields["max_rel_err"]
        report.error = f"determinant-ratio oracle FAILED (max rel err {err:.3e})"
    return report


def _iteration_args(args):
    """``(tol, maxit)`` with their defaults; ``--tol`` must be finite and nonnegative,
    ``--maxit`` at least 1."""
    tol = DEFAULT_TOL if args.tol is None else args.tol
    maxit = DEFAULT_MAXIT if args.maxit is None else args.maxit
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"--tol must be finite and at least 0, got {tol!r}")
    if maxit < 1:
        raise UsageError(f"--maxit must be at least 1, got {maxit}")
    return tol, maxit


def cmd_factor(args):
    tol, maxit = _iteration_args(args)
    poly = read_poly(args.input)
    if args.quad:
        if (poly.lo, poly.hi) != (-1, 1):
            raise UsageError("--quad expects a Laurent polynomial with powers -1..1")
        f = cr_quadratic(*poly.coeffs, tol=tol, maxit=maxit)
        fields = dict(iterations=f.iterations, residual=f.residual, rho_g=f.rho_g, rho_r=f.rho_r)
        lines = [
            f"cyclic reduction: {f.iterations} iterations, residual {f.residual:.3e}",
            f"rho(G+) = {fmt_float(f.rho_g)}, rho(R+) = {fmt_float(f.rho_r)}",
        ]
        _matrices(fields, lines, [("gplus", "G+", f.gplus), ("rplus", "R+", f.rplus),
                                  ("kplus", "K+", f.kplus)])
        if args.both:
            rf = reversed_factorization(*poly.coeffs, f)
            lines.append(f"reversed factorization residual {rf.residual:.3e}")
            _matrices(fields, lines, [("gminus", "G-", rf.gminus), ("rminus", "R-", rf.rminus),
                                      ("kminus", "K-", rf.kminus), ("w", "W", rf.w)])
            fields["reversed_residual"] = rf.residual
        return Report(fields, lines)
    if poly.lo != 0:
        raise UsageError("factoring a Laurent polynomial requires --quad")
    if args.both:
        raise UsageError("--both applies to --quad factorizations only")
    rep = solve_unilateral(poly, tol=tol, maxit=maxit)
    pf = poly_factorization(poly, rep.g)
    return Report(
        dict(iterations=rep.iterations, residual=rep.residual, g=pf.g, ucoeffs=pf.ucoeffs),
        [
            f"minimal solvent via cyclic reduction: {rep.iterations} iterations, "
            f"residual {rep.residual:.3e}",
            ("G", pf.g),
            *((f"U{i}", c) for i, c in enumerate(pf.ucoeffs)),
        ],
    )


def cmd_solve(args):
    if args.method == "eigen":
        for flag in ("tol", "maxit"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} applies only with --method cr")
    tol, maxit = _iteration_args(args)
    poly = read_poly(args.input)
    if poly.lo != 0:
        raise UsageError("solve expects a matrix polynomial file (lo == 0)")
    if args.seed is not None and args.method != "eigen":
        raise UsageError("--seed applies only with --method eigen")
    if args.shift is None:
        if args.u is not None or args.v is not None:
            raise UsageError("--u and --v apply only with --shift")
        rep = solve_unilateral(
            poly, method=args.method, tol=tol, maxit=maxit,
            seed=DEFAULT_SEED if args.seed is None else args.seed,
        )
    else:
        if args.method == "eigen":
            raise UsageError("--shift runs cyclic reduction; --method eigen does not apply")
        parts = args.shift.split(",")
        if not 1 <= len(parts) <= 2:
            raise UsageError("--shift expects LAMBDA or LAMBDA,MU")
        lam = parse_complex(parts[0])
        mu = parse_complex(parts[1]) if len(parts) == 2 else 0.0 + 0.0j
        u = _vector_arg(args.u, poly, lam)
        v = _dual_arg(args.v, poly.n)
        rep = shift_accelerated_solve(poly, lam, u, v, mu, tol=tol, maxit=maxit)
    sigma = None if math.isnan(rep.sigma) else rep.sigma
    fields = {
        "iterations": rep.iterations,
        "residual": rep.residual,
        "sigma": sigma,
        "shifted": rep.shifted,
        "g": rep.g,
    }
    lines = [
        f"iterations: {rep.iterations}",
        f"residual:   {rep.residual:.3e}",
        f"sigma:      {'n/a' if sigma is None else fmt_float(sigma)}",
        ("G", rep.g),
    ]
    if rep.shifted:
        lam, mu, _ = rep.recovery
        fields["recovery"] = {"lambda": [lam.real, lam.imag], "mu": [mu.real, mu.imag]}
        lines.insert(-1, (
            f"recovered from shifted equation ({fmt_complex(lam)} -> {fmt_complex(mu)}); "
            f"original-equation residual verified"
        ))
    return Report(fields, lines)


def _finite_values(text, flag):
    values = [parse_complex(s) for s in text.split(",") if s.strip()]
    if any(is_infinite(w) for w in values):
        raise UsageError(
            f"{flag} takes finite values; for a shift at infinity leave the value out "
            "and pass --fit-constant"
        )
    return values


def _oracle_report(a, b, removed, added, samples, seed, fit_constant):
    """The determinant-ratio oracle on ``a`` and ``b``; exit status 1 when it fails."""
    r = det_ratio_oracle(
        a, b, removed=removed, added=added, samples=samples, seed=seed, fit_constant=fit_constant
    )
    fields = {"passed": r.passed, "max_rel_err": r.max_rel_err, "samples": r.samples}
    return Report(fields, [f"oracle: {r}"], 0 if r.passed else 1)


def cmd_check(args):
    a = read_poly(args.a)
    b = read_poly(args.b)
    removed = _finite_values(args.removed, "--removed")
    added = _finite_values(args.added, "--added")
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    return _oracle_report(a, b, removed, added, args.samples, args.seed, args.fit_constant)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, seed=True, tol=False):
    """``--format`` for every subcommand; ``--seed`` and ``--tol`` where they are read."""
    if seed:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed (default 42)")
    if tol:
        sub.add_argument("--tol", type=float, default=None, help="iteration tolerance")
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
    _add_common(sp, seed=False)
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
    sp.add_argument("--side", choices=("right", "left"), default=None,
                    help="single shift side (default right)")
    sp.add_argument("--u", default=None,
                    help="right vector / dual as comma-separated complex, or 'auto' (default)")
    sp.add_argument("--v", default=None,
                    help="left vector / dual as comma-separated complex, or 'auto' (default)")
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
    sp.add_argument("--maxit", type=int, default=None)
    _add_common(sp, seed=False, tol=True)
    sp.set_defaults(func=cmd_factor)

    sp = subs.add_parser("solve", help="minimal solvent of sum_i A_i X^i = 0")
    sp.add_argument("input")
    sp.add_argument("--shift", default=None, metavar="LAMBDA[,MU]",
                    help="accelerate by shifting LAMBDA to MU (default MU=0) first")
    sp.add_argument("--method", choices=("cr", "eigen"), default="cr")
    sp.add_argument("--maxit", type=int, default=None)
    sp.add_argument("--u", default=None, help="shift eigenvector (with --shift; default auto)")
    sp.add_argument("--v", default=None, help="shift dual vector (with --shift; default auto)")
    sp.add_argument("--seed", type=int, default=None,
                    help="random seed for --method eigen (default 42)")
    _add_common(sp, seed=False, tol=True)
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


@functools.cache
def _parser():
    """The parser every :func:`main` call reuses, built on the first call."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report, error = args.func(args), None
        except (MpshiftError, OSError) as exc:
            report, error = None, exc
    raised = [str(w.message) for w in caught]
    if error is not None:
        for text in raised:
            print(f"warning: {text}", file=sys.stderr)
        print(f"error: {error}", file=sys.stderr)
        return 2 if isinstance(error, USAGE_ERRORS) else 1
    if args.format == "json":
        print(report_json({"command": args.command, **report.fields}))
    else:
        for line in report.lines:
            print(line if isinstance(line, str) else f"{line[0]} =\n{fmt_matrix(line[1])}")
    for text in (*raised, *report.warnings):
        print(f"warning: {text}", file=sys.stderr)
    if report.error:
        print(f"error: {report.error}", file=sys.stderr)
    return report.status


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
