"""Batch command-line front end ``mpshift``.

Each ``cmd_*`` returns one :class:`Report` and prints nothing; :func:`main`
renders it as a table or, with ``--format json``, as one JSON object.

One table drives every command: :data:`MODES` gives, for each command and
mode, the flag that selects the mode, the flags it requires, the other flags it
reads and the INPUT it accepts (anything, ``lo = 0`` or powers -1..1), and
:data:`FLAGS` declares each flag once, with its default and its check.  The
parser is built from both, so a subcommand takes ``--format`` and only the
flags its modes read; :func:`run` checks the flags before INPUT is read and
INPUT's kind after.  The determinant-ratio oracle re-checks every shift.

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
(``{lambda mu}``) when shifted; check ``passed max_rel_err samples``
(``max_rel_err`` is ``null`` when not finite).
Matrices are nested lists of ``[re, im]`` pairs.  Output is deterministic
given the inputs and ``--seed``; numbers print with shortest round-trip
decimals.

Rendering costs little more than the float conversions and keeps the bytes:
:func:`report_json` is ``json.dumps(fields, default=matrix_json)`` with each
top-level array filled in as one template for its shape (:func:`array_json`)
from the repr texts of its floats, which orjson writes in one call
(:func:`~mpshift.core.float_texts`).  Tables take the same texts: :func:`complex_texts`
spells every entry of an array as ``RE+IMi`` from two such calls, and
:func:`fmt_matrix` joins them into rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .core import (
    INF,
    _pair_texts,
    _read_object,
    det_ratio_oracle,
    float_texts,
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
    arrays left as arrays.  ``lines`` are the table's lines; a callable among
    them prints as the text it returns, so numbers and matrices are formatted
    only for a table.  ``warnings`` and ``error`` go to stderr.
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


def _components(text, what):
    """The comma-separated components of a flag value, none for an empty one; an empty
    component is a UsageError naming ``what`` and the value."""
    parts = text.split(",") if text.strip() else []
    if not all(s.strip() for s in parts):
        raise UsageError(f"{what} {text!r} has an empty component")
    return parts


def parse_vector(text, n):
    parts = _components(text, "vector")
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


def complex_texts(values):
    """``RE+IMi`` or ``RE-IMi`` per entry of a complex array (flattened), ``Inf`` if not finite."""
    z = np.asarray(values, dtype=complex).ravel()
    signs = np.where(np.signbit(z.imag), "-", "+").tolist()
    texts = [f"{re}{sign}{im}i" for re, sign, im in
             zip(float_texts(np.ascontiguousarray(z.real)), signs, float_texts(np.abs(z.imag)))]
    for i in np.flatnonzero(~np.isfinite(z)).tolist():
        texts[i] = "Inf"
    return texts


def fmt_matrix(mat):
    texts, width = complex_texts(mat), np.shape(mat)[1]
    return "\n".join("  " + "  ".join(texts[i:i + width]) for i in range(0, len(texts), width))


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
    """``json.dumps(matrix_json(mat))``, filled in as one ``%s`` template for its shape.

    The slots take the floats' ``repr`` texts, which orjson writes in one call
    (:func:`~mpshift.core._pair_texts`): when every imaginary part is a zero of
    one sign, as for results computed from real data, the pair is ``[%s, 0.0]``
    (or ``-0.0``) and only the real parts are converted.
    A finite float's repr has no ``n``, so an ``n`` in the text means an
    ``inf`` or ``nan`` entry, which goes through ``json.dumps`` for its
    ``Infinity`` and ``NaN`` spellings.
    """
    mat = np.asarray(mat, dtype=complex)
    imag, texts = _pair_texts(mat)
    leaf = f"[%s, {imag}]"
    for width in reversed(mat.shape):
        leaf = "[" + ", ".join([leaf] * width) + "]"
    text = leaf % tuple(texts)
    return json.dumps(matrix_json(mat)) if "n" in text else text


def report_json(fields):
    """``json.dumps(fields, default=matrix_json)`` for a dict with string keys.

    Each top-level array goes through :func:`array_json` (its floats converted
    by orjson), every other value, arrays nested in it included, through
    ``json.dumps``.
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


def _matrix_line(label, mat):
    """A table line printing as ``label =`` followed by the matrix."""
    return lambda: f"{label} =\n{fmt_matrix(mat)}"


def _matrices(fields, lines, named):
    """Add ``(key, label, matrix)`` triples to a report's fields and lines."""
    for key, label, mat in named:
        fields[key] = mat
        lines.append(_matrix_line(label, mat))


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
    pairs = polyeig(args.poly, seed=args.seed, want_left=args.left).pairs
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
    return Report({"eigenvalues": rows}, [functools.partial(_eig_table, pairs)])


def _eig_table(pairs):
    """The eig table: one row per eigenvalue, the values from one :func:`complex_texts` call."""
    lines = [f"{'value':<48} {'modulus':<24} residual"]
    for q, value in zip(pairs, complex_texts([p.value for p in pairs])):
        mod = "Inf" if q.is_infinite else fmt_float(abs(q.value))
        flag = " (borderline)" if q.borderline else ""
        lines.append(f"{value:<48} {mod:<24} {q.residual:.3e}{flag}")
    return "\n".join(lines)


# Each shift handler returns (shifted, removed, added, fit_constant, mode note).

def _shift_single(args, poly):
    """Single shifts; --from-inf and --to-inf are single shifts with lambda or mu infinite."""
    lam = INF if args.mode == "from-inf" else args.lam
    mu = INF if args.mode == "to-inf" else args.mu
    infinite = is_infinite(lam) or is_infinite(mu)
    if infinite and args.side == "left":
        raise UsageError("--side left does not apply to infinity shifts")
    left = args.side == "left"
    vector, dual = (args.v, args.u) if left else (args.u, args.v)
    spec = ShiftSpec(lam, mu, _vector_arg(vector, poly, lam, left), _dual_arg(dual, poly.n),
                     args.side)
    shifted = (left_shift_poly if left else right_shift_poly)(poly, spec)
    if args.mode != "single":
        note = args.mode.replace("-inf", " infinity")  # from infinity, to infinity
    else:
        note = "single (routed to infinity shift)" if infinite else f"single {args.side}"
    removed = [] if is_infinite(lam) else [lam]
    added = [] if is_infinite(mu) else [mu]
    return shifted, removed, added, infinite, note


def _shift_double(args, poly):
    l1, m1, l2, m2 = args.lam, args.mu, args.lam2, args.mu2
    rspec = ShiftSpec(l1, m1, _vector_arg(args.u, poly, l1), side="right")
    lspec = ShiftSpec(l2, m2, _vector_arg(args.v, poly, l2, left=True), side="left")
    return double_shift_laurent(poly, rspec, lspec), [l1, l2], [m1, m2], False, "double"


def _shift_multi(args, poly):
    try:  # a packet's parse errors name the file
        payload = _read_object(args.multi, ("lambdas", "targets"))
        raw = payload["lambdas"], payload["targets"]
        if not all(isinstance(r, list) for r in raw) or len(raw[0]) != len(raw[1]) or not raw[0]:
            raise ParseError("lambdas and targets must be equal-length non-empty lists")
        for s in raw[0] + raw[1]:
            if isinstance(s, bool) or not isinstance(s, (int, float, str)):
                raise ParseError(f"lambdas and targets must hold numbers or complex literals, "
                                 f"got {json.dumps(s)}")
        lams, targets = ([parse_complex(str(s)) for s in r] for r in raw)
        if any(map(is_infinite, lams + targets)):
            raise ParseError("lambdas and targets must be finite")
    except (ParseError, UsageError) as exc:
        raise ParseError(f"{args.multi}: {exc}") from exc
    cols = [refine_pair(poly, lam, null_vectors(poly, lam)[0]).right for lam in lams]
    ms = MultiShiftSpec(np.column_stack(cols), np.diag(lams), np.diag(targets))
    return multishift_poly(poly, ms), lams, targets, False, f"multishift m={len(lams)}"


def _shift_palindromic(args, poly):
    lam, mu = args.lam, args.mu
    shifted = palindromic_shift(poly, lam, mu, _vector_arg(args.u, poly, lam))
    removed = [lam] + ([1.0 / lam.conjugate()] if lam != 0 else [])
    added = [mu] + ([1.0 / mu.conjugate()] if mu != 0 else [])
    return shifted, removed, added, True, "palindromic"


_SHIFTS = {"single": _shift_single, "double": _shift_double, "multi": _shift_multi,
           "from-inf": _shift_single, "to-inf": _shift_single, "palindromic": _shift_palindromic}


def cmd_shift(args):
    poly = args.poly
    shifted, removed, added, fit_constant, mode_note = _SHIFTS[args.mode](args, poly)
    write_poly(shifted, args.output)
    rep = det_ratio_oracle(poly, shifted, removed, added, ORACLE_SAMPLES, args.seed, fit_constant)
    oracle = _oracle_report(rep)
    report = Report(
        {"mode": mode_note, "output": args.output, "oracle": oracle.fields},
        [f"shift mode: {mode_note}", f"wrote {args.output}", *oracle.lines],
        oracle.status,
    )
    if args.mode == "single" and removed == added:
        report.warnings = ("mu equals lambda; the shift is a no-op",)
    if oracle.status:
        report.error = f"determinant-ratio oracle FAILED (max rel err {rep.max_rel_err:.3e})"
    return report


def cmd_factor(args):
    poly, tol, maxit = args.poly, args.tol, args.maxit
    if args.mode == "quad":
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
    rep = solve_unilateral(poly, tol=tol, maxit=maxit)
    pf = poly_factorization(poly, rep.g)
    return Report(
        dict(iterations=rep.iterations, residual=rep.residual, g=pf.g, ucoeffs=pf.ucoeffs),
        [
            f"minimal solvent via cyclic reduction: {rep.iterations} iterations, "
            f"residual {rep.residual:.3e}",
            _matrix_line("G", pf.g),
            *(_matrix_line(f"U{i}", c) for i, c in enumerate(pf.ucoeffs)),
        ],
    )


def cmd_solve(args):
    poly, tol, maxit = args.poly, args.tol, args.maxit
    if args.mode == "shift":
        lam, mu = args.shift
        u, v = _vector_arg(args.u, poly, lam), _dual_arg(args.v, poly.n)
        rep = shift_accelerated_solve(poly, lam, u, v, mu, tol=tol, maxit=maxit)
    else:
        rep = solve_unilateral(poly, method=args.mode, tol=tol, maxit=maxit, seed=args.seed)
    fields = {
        "iterations": rep.iterations,
        "residual": rep.residual,
        "sigma": rep.sigma,
        "shifted": rep.shifted,
        "g": rep.g,
    }
    lines = [
        f"iterations: {rep.iterations}",
        f"residual:   {rep.residual:.3e}",
        f"sigma:      {fmt_float(rep.sigma)}",
        _matrix_line("G", rep.g),
    ]
    if rep.shifted:
        lam, mu, _ = rep.recovery
        fields["recovery"] = {"lambda": [lam.real, lam.imag], "mu": [mu.real, mu.imag]}
        lines.insert(-1, lambda: (
            f"recovered from shifted equation ({' -> '.join(complex_texts([lam, mu]))}); "
            f"original-equation residual verified"
        ))
    return Report(fields, lines)


def _oracle_report(r):
    """An oracle's report; exit status 1 when it failed, a non-finite error is null."""
    err = r.max_rel_err if math.isfinite(r.max_rel_err) else None
    fields = {"passed": r.passed, "max_rel_err": err, "samples": r.samples}
    return Report(fields, [f"oracle: {r}"], 0 if r.passed else 1)


def cmd_check(args):
    r = det_ratio_oracle(read_poly(args.a), read_poly(args.b), args.removed, args.added,
                         args.samples, args.seed, args.fit_constant)
    return _oracle_report(r)


# ---------------------------------------------------------------------------
# the mode table
# ---------------------------------------------------------------------------

def _finite_values(text, flag, hint=""):
    """Comma-separated complex literals, each finite."""
    values = [parse_complex(s) for s in _components(text, flag)]
    if any(map(is_infinite, values)):
        raise UsageError(f"{flag} takes finite values{hint}")
    return values


def _shift_values(text, flag):
    """``--shift LAMBDA[,MU]`` as the pair (lambda, mu), mu 0 by default."""
    values = _finite_values(text, flag)
    if not 1 <= len(values) <= 2:
        raise UsageError(f"{flag} expects LAMBDA or LAMBDA,MU")
    return values[0], values[1] if len(values) == 2 else 0j


def _rule(text, holds):
    """The check of a value that must be ``text``, as ``holds`` tests it."""
    def check(value, flag):
        if not holds(value):
            raise UsageError(f"{flag} must be {text}, got {value!r}")
        return value
    return check


# An option: its argparse names and keywords, its default and its check, which
# maps a given value to the one to use or raises UsageError.  The parser leaves
# every option not given at None, so :func:`run` tells it from one given as its
# default.  The help text ends with the default.
Flag = namedtuple("Flag", "names kwargs default check")


def _flag(*names, default=None, check=None, **kwargs):
    kwargs.setdefault("dest", names[-1][2:].replace("-", "_"))
    if default not in (None, ()):
        kwargs["help"] += f" (default {default})"
    elif kwargs.get("action") == "store_true":
        default = False
    return names[-1][2:], Flag(names, {**kwargs, "default": None}, default, check)


_AT_LEAST_ONE = _rule("at least 1", lambda n: n >= 1)
_ORACLE_VALUES = functools.partial(
    _finite_values, hint="; for a shift at infinity leave the value out and pass --fit-constant")

# every flag of every command, each declared once, in the order --help lists them
FLAGS = dict((
    _flag("-o", "--output", help="output .mp.json path (fixture: default NAME.mp.json)"),
    _flag("--left", action="store_true", help="also compute left eigenvectors"),
    _flag("--lambda", dest="lam", type=parse_complex,
          help="eigenvalue to move (complex literal, or 'inf')"),
    _flag("--mu", type=parse_complex, help="target value"),
    _flag("--side", default="right", choices=("right", "left"), help="single shift side"),
    _flag("--quad", action="store_true", help="quadratic Laurent input: cyclic reduction"),
    _flag("--both", action="store_true", help="also factor A(1/z) (requires --quad)"),
    _flag("--shift", metavar="LAMBDA[,MU]", check=_shift_values,
          help="accelerate by shifting LAMBDA to MU (default MU=0) first"),
    _flag("--method", default="cr", choices=("cr", "eigen"), help="solver"),
    _flag("--maxit", type=int, default=64, check=_AT_LEAST_ONE, help="iteration limit"),
    _flag("--u", help="right vector / dual as comma-separated complex, or 'auto' (default)"),
    _flag("--v", help="left vector / dual as comma-separated complex, or 'auto' (default)"),
    _flag("--double", action="store_true", help="double shift (right then left)"),
    _flag("--lambda2", dest="lam2", type=parse_complex, help="left-shift eigenvalue for --double"),
    _flag("--mu2", type=parse_complex, help="left-shift target for --double"),
    _flag("--multi", help="JSON file with 'lambdas' and 'targets' lists for a multishift"),
    _flag("--from-inf", action="store_true", help="replace an infinite eigenvalue by --mu"),
    _flag("--to-inf", action="store_true", help="send --lambda to infinity"),
    _flag("--palindromic", action="store_true", help="shift lambda and 1/conj(lambda) together"),
    _flag("--removed", default=(), check=_ORACLE_VALUES,
          help="comma-separated removed eigenvalues"),
    _flag("--added", default=(), check=_ORACLE_VALUES, help="comma-separated added eigenvalues"),
    _flag("--samples", type=int, default=ORACLE_SAMPLES, check=_AT_LEAST_ONE, help="sample points"),
    _flag("--fit-constant", action="store_true", help="fit the ratio's constant at one sample"),
    _flag("--seed", type=int, default=42, help="random seed"),
    _flag("--tol", type=float, default=1e-14, help="iteration tolerance",
          check=_rule("finite and at least 0", lambda t: math.isfinite(t) and t >= 0)),
))

# For each command and mode: the flag that selects the mode (given, or given
# the value after "="; a command's first row is its default mode), the flags it
# requires and the other flags it reads, and the INPUT it accepts (None: the
# command has no INPUT).  A flag all modes of a command require is the parser's.
Mode = namedtuple("Mode", "command name selected_by required optional input")
MODES = tuple(Mode(c, m, s, r.split(), o.split(), i) for c, m, s, r, o, i in (
    # command   mode           selected by     required, optional, input
    ("fixture", "fixture",     "",             "", "output", None),
    ("eig",     "polynomial",  "",             "", "left seed", "lo = 0"),
    ("shift",   "single",      "",             "output lambda mu", "side u v seed", "any"),
    ("shift",   "double",      "double",       "output lambda mu lambda2 mu2", "u v seed", "any"),
    ("shift",   "multi",       "multi",        "output", "seed", "any"),
    ("shift",   "from-inf",    "from-inf",     "output mu", "u v seed", "lo = 0"),
    ("shift",   "to-inf",      "to-inf",       "output lambda", "u v seed", "lo = 0"),
    ("shift",   "palindromic", "palindromic",  "output lambda mu", "u seed", "lo = 0"),
    ("factor",  "polynomial",  "",             "", "maxit tol", "lo = 0"),
    ("factor",  "quad",        "quad",         "", "both maxit tol", "powers -1..1"),
    ("solve",   "cr",          "",             "", "method maxit tol", "lo = 0"),
    ("solve",   "shift",       "shift",        "", "method u v maxit tol", "lo = 0"),
    ("solve",   "eigen",       "method=eigen", "", "seed", "lo = 0"),
    ("check",   "oracle",      "",             "", "removed added samples fit-constant seed",
     None),
))

# input kind -> (whether a polynomial is of that kind, what a mode of that kind needs)
INPUTS = {
    "any": (lambda p: True, ""),
    "lo = 0": (lambda p: p.lo == 0, "a matrix polynomial input"),
    "powers -1..1": (lambda p: (p.lo, p.hi) == (-1, 1), "a Laurent polynomial with powers -1..1"),
}

# command -> (handler, help, what errors call its modes as in "cr solves", positional arguments)
_INPUT = (("input", {}),)
COMMANDS = {
    "fixture": (cmd_fixture, "write a built-in example polynomial", "fixtures",
                (("name", dict(choices=sorted(fixtures.FIXTURES), help="fixture name")),)),
    "eig": (cmd_eig, "eigenvalues sorted by modulus, infinity last", "eigenvalue problems", _INPUT),
    "shift": (cmd_shift, "apply an eigenvalue shift (oracle-checked)", "shifts", _INPUT),
    "factor": (cmd_factor, "canonical factorization", "factorizations", _INPUT),
    "solve": (cmd_solve, "minimal solvent of sum_i A_i X^i = 0", "solves", _INPUT),
    "check": (cmd_check, "standalone determinant-ratio oracle", "checks",
              (("a", dict(help="original polynomial")),
               ("b", dict(help="transformed polynomial")))),
}


def _reads(mode):
    return {mode.selected_by.partition("=")[0], *mode.required, *mode.optional} - {""}


# command -> every flag one of its modes reads, in FLAGS order: its parser's options
_FLAGS_OF = {command: [name for name in FLAGS if any(
    name in _reads(m) for m in MODES if m.command == command)] for command in COMMANDS}


def _value(args, name):
    return getattr(args, FLAGS[name].kwargs["dest"])


def _selects(args, mode):
    name, _, wanted = mode.selected_by.partition("=")
    return _value(args, name) == wanted if wanted else _value(args, name) is not None


def run(command, args):
    """Run ``command`` on ``args`` in the mode they select, checked against the mode table.

    At most one mode may be selected; none selects the command's first row.
    Each flag the mode requires must be given, and none it does not read.  A
    flag left out takes its default, a given one passes its check.  Only then
    is INPUT read into ``args.poly``, which must be of the mode's kind.  Each
    failure is a UsageError.  The handler reads ``args.mode``.
    """
    modes = [m for m in MODES if m.command == command]
    chosen = [m for m in modes[1:] if _selects(args, m)]
    if len(chosen) > 1:
        raise UsageError(f"conflicting {command} modes: {', '.join(m.name for m in chosen)}")
    mode = chosen[0] if chosen else modes[0]
    handler, _, noun, _ = COMMANDS[command]
    label, reads = f"{mode.name} {noun}", _reads(mode)
    for name in _FLAGS_OF[command]:
        flag, value = FLAGS[name], _value(args, name)
        if value is None:
            if name in mode.required:
                raise UsageError(f"--{name} is required for {label}")
            value = flag.default
        elif name not in reads:
            raise UsageError(f"--{name} does not apply to {label}")
        elif flag.check:
            value = flag.check(value, f"--{name}")
        setattr(args, flag.kwargs["dest"], value)
    args.mode = mode.name
    if mode.input:
        args.poly = read_poly(args.input)
        accepts, needs = INPUTS[mode.input]
        if not accepts(args.poly):
            raise UsageError(f"{label} need {needs}")
    return handler(args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mpshift",
        description="Eigenvalue shifts, factorizations, and equation solvers "
        "for matrix polynomials (.mp.json files)",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, _, positionals) in COMMANDS.items():
        sp = subs.add_parser(command, help=text)
        for name, kwargs in positionals:
            sp.add_argument(name, **kwargs)
        for name in _FLAGS_OF[command]:
            required = all(name in m.required for m in MODES if m.command == command)
            sp.add_argument(*FLAGS[name].names, required=required, **FLAGS[name].kwargs)
        sp.add_argument("--format", choices=("table", "json"), default="table",
                        help="report format")
        sp.set_defaults(func=functools.partial(run, command))
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
    if error is not None:
        report = Report({}, [], 2 if isinstance(error, USAGE_ERRORS) else 1, str(error))
    elif args.format == "json":
        print(report_json({"command": args.command, **report.fields}))
    else:
        for line in report.lines:
            print(line if isinstance(line, str) else line())
    for text in (*(str(w.message) for w in caught), *report.warnings):
        print(f"warning: {text}", file=sys.stderr)
    if report.error is not None:
        print(f"error: {report.error}", file=sys.stderr)
    return report.status


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
