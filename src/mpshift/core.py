"""Core data types and operations for matrix Laurent polynomials.

One container, :class:`LaurentPoly`, holds A(z) = sum_{i=lo}^{hi} z^i A_i
with square complex coefficients and lo <= 0 <= hi.  A matrix polynomial is
the case lo = 0; :class:`MatrixPoly` is the subclass that fixes lo = 0 and
adds nothing else.  This module provides the container, evaluation,
determinants, serialization, and the determinant-ratio oracle used to
validate every eigenvalue shift in the package.

Containers store complex double precision; real inputs are promoted on
construction.  The solvers compute in real double precision when no input
entry has a nonzero imaginary part (see :func:`as_working`) and promote
their results back to complex.  Containers are immutable after construction
and all operations are pure functions, so concurrent use is safe.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain

import numpy as np
import orjson

from .errors import (
    DegeneratePolynomial,
    DegenerateShift,
    DimensionMismatch,
    ParseError,
    ZeroAtNegativePower,
)

# Absolute floor protecting relative tolerances from division by zero.
FLOOR = 1e-300

# rcond(A(z)) at or below RANK_TOL counts as "A(z) is singular".
RANK_TOL = 1e-13
ORACLE_RADII = (0.7, 1.3)  # the oracle's sample circles, straddling |z| = 1
ORACLE_TOL = 1e-8  # the oracle passes when max |ratio / C - 1| <= ORACLE_TOL
EIGENPAIR_TOL = 1e-8  # relative residual of an eigenpair or invariant pair
RESIDUAL_TOL = 1e-10  # relative residual of a solvent, factorization or dual pair
_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}  # of _check


def _freeze(arr):
    arr = np.array(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


def as_working(*arrays):
    """The arrays in the dtype the solvers compute in.

    Real float64 (the ``.real`` parts, C-contiguous) when no entry of any
    array has a nonzero imaginary part, complex128 otherwise.  The test is
    exact, so the real path drops only zeros.
    """
    arrays = [np.asarray(a) for a in arrays]
    if any(np.iscomplexobj(a) and a.imag.any() for a in arrays):
        return tuple(np.asarray(a, dtype=complex) for a in arrays)
    return tuple(np.ascontiguousarray(a.real, dtype=float) for a in arrays)


def _square_coeffs(coeffs):
    """Coerce a coefficient sequence to immutable complex square arrays."""
    if len(coeffs) == 0:
        raise DimensionMismatch("at least one coefficient is required")
    out = []
    n = None
    for k, c in enumerate(coeffs):
        m = np.asarray(c, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"coefficient {k} is not square: shape {m.shape}")
        if n is None:
            n = m.shape[0]
        elif m.shape[0] != n:
            raise DimensionMismatch(
                f"coefficient {k} has size {m.shape[0]}, expected {n}"
            )
        if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
            raise ValueError(f"coefficient {k} contains non-finite entries")
        out.append(_freeze(m))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class LaurentPoly:
    """Matrix Laurent polynomial A(z) = sum_{i=lo}^{hi} z^i A_i, lo <= 0 <= hi.

    ``coeffs[k]`` is the coefficient of z^{lo+k}.  A matrix polynomial is
    the case lo = 0; functions defined only for polynomials check
    ``p.lo == 0``, so they accept ``LaurentPoly(0, coeffs)`` and
    :class:`MatrixPoly` alike.
    """

    lo: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _square_coeffs(self.coeffs))
        if self.lo > 0:
            raise DimensionMismatch(f"lo must be <= 0, got {self.lo}")
        if self.hi < 0:
            raise DimensionMismatch(f"hi must be >= 0, got {self.hi}")

    @property
    def n(self):
        return self.coeffs[0].shape[0]

    @property
    def hi(self):
        return self.lo + len(self.coeffs) - 1

    @property
    def d(self):
        return self.hi - self.lo

    @cached_property
    def _scaled(self):
        """The coefficients stacked and prescaled once, for :func:`_in_disk`."""
        return _freeze(_pow2_scaled([np.array(self.coeffs)])[0][0])

    def coeff(self, power):
        """Coefficient of z^power; zero matrix outside the stored range."""
        if self.lo <= power <= self.hi:
            return self.coeffs[power - self.lo]
        return np.zeros((self.n, self.n), dtype=complex)

    def to_laurent(self):
        return LaurentPoly(self.lo, self.coeffs)


@dataclass(frozen=True, eq=False)
class MatrixPoly(LaurentPoly):
    """Matrix polynomial A(z) = sum_{i=0}^d z^i coeffs[i]: a LaurentPoly with lo = 0."""

    lo: int = field(default=0, init=False)


INF = complex(math.inf, 0.0)


def is_infinite(value):
    return not cmath.isfinite(complex(value))


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigenvalue with right (and optionally left) vector and residual.

    ``value`` may be the point at infinity (any non-finite complex).  The
    right vector has unit 2-norm with its first significant entry real
    positive.  ``residual`` is :func:`pair_residual` of (value, right), which
    is ||A_d right|| / ||A_d||_F for infinite values.  ``borderline`` marks
    finite/infinite classifications that were decided near the threshold.
    """

    value: complex
    right: np.ndarray
    left: np.ndarray = None
    residual: float = 0.0
    borderline: bool = False

    def __post_init__(self):
        object.__setattr__(self, "right", _freeze(self.right).reshape(-1))
        if self.left is not None:
            object.__setattr__(self, "left", _freeze(self.left).reshape(-1))

    @property
    def is_infinite(self):
        return is_infinite(self.value)


def unit_vector(v):
    """Normalize to unit 2-norm with the first significant entry real positive."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not v.any():
        raise ValueError("cannot normalize the zero vector")
    (v,), _, nrm = _pow2_scaled([v])  # so ||v|| neither under- nor overflows
    v = v / nrm
    k = int(np.argmax(np.abs(v) > 1e-12))
    phase = v[k] / abs(v[k])
    return v * phase.conjugate()


def horner(coeffs, z):
    """sum_k z^k coeffs[k] by Horner's scheme; an array z broadcasts against the coefficients."""
    acc = np.array(coeffs[-1], dtype=complex)
    if len(coeffs) == 1:  # no product broadcasts the constant to a stack of points
        acc = np.broadcast_to(acc, np.broadcast_shapes(acc.shape, np.shape(z))).copy()
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def evaluate(p, z):
    """Evaluate A(z) by Horner's scheme; an array z gives the stack z.shape + (n, n).

    Laurent polynomials are evaluated as z^lo times a Horner sweep over the
    ascending-power coefficients, so z = 0 is rejected when lo < 0.
    """
    z = np.asarray(z, dtype=complex)[..., None, None]
    if p.lo < 0 and (z == 0).any():
        raise ZeroAtNegativePower("cannot evaluate at z = 0 with negative powers")
    acc = horner(p.coeffs, z)
    if p.lo != 0:
        # rounded as Python's complex z**lo: np.power's products, then a reciprocal
        acc = acc * np.power(z, -p.lo) ** -1
    return acc


def det_at(p, z):
    """Determinant of A(z), via the pivoted-LU determinant of the evaluation."""
    return complex(np.linalg.det(evaluate(p, z)))


def rcond(m):
    """sigma_min / sigma_max of m (NaN if m is not finite, 0 if zero): the one rank test."""
    m = np.asarray(m)
    if not np.isfinite(m).all():
        return math.nan
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0


def reverse(p):
    """Reverse polynomial z^d A(1/z); eigenvalues become reciprocals (1/0 = inf)."""
    if p.lo != 0:
        raise DimensionMismatch("reverse is defined for matrix polynomials")
    return replace(p, coeffs=p.coeffs[::-1])


def _times(a, factor):
    """a * factor for a power of two, exact; complex parts apart, so -0.0 stays -0.0."""
    if not np.iscomplexobj(a):
        return a * factor
    out = np.empty_like(a)
    out.real, out.imag = a.real * factor, a.imag * factor
    return out


def _pow2_scaled(arrays):
    """How every relative gate is normalized: the arrays times 2^-e (e in
    [-1021, 1023] the binary exponent of their largest entry), 2^-e, and the
    scale max(sum ||a||_F, FLOOR) of the divided arrays, summed in order.  The
    division is exact, so ordinary scales keep their bits and no norm under-
    or overflows; ``_times(x, 1 / step)`` multiplies a result back."""
    exponent = math.frexp(max(float(np.abs(a).max()) for a in arrays))[1]
    step = 2.0 ** -min(max(exponent, -1021), 1023)
    scaled = [_times(a, step) for a in arrays]
    return scaled, step, max(sum(np.linalg.norm(a) for a in scaled), FLOOR)


def _check(error, name, value, tol, message, *args, op="<=", step=None):
    """Every numerical gate: raise ``error(message.format(*args))`` unless ``value op tol``.

    Written as ``not value op tol`` (``op`` is ``"<="`` unless the gate is a
    strict or a lower bound), so a NaN measurement fails it instead of passing.
    The error carries the gate's stable ``name``, the ``value`` it compared,
    ``tol`` and, for an iteration, ``step`` as fields.  The message is
    formatted only on failure, so a passing gate costs one comparison.
    """
    if not _OPS[op](value, tol):
        raise error(message.format(*args), name=name, value=value, tol=tol, step=step)


def _in_disk(p, z):
    """``(w, coeffs)`` with sum_k w^k coeffs[k] = 2^-e z^-lo A(z) if |z| <= 1, else
    2^-e z^-hi A(z): coeffs reversed at w = 1/z (0 at z = inf), one (d + 1, n, n)
    array prescaled by :func:`_pow2_scaled`.  |w| <= 1 and no entry exceeds 1, so
    a Horner sweep never overflows; its null vectors are those of A(z).  NaN z gives NaN w.
    """
    z = complex(z)
    if z == 0 and p.lo < 0:
        raise ZeroAtNegativePower("A(z) is undefined at radius 0 with negative powers")
    if abs(z) <= 1.0:
        return z, p._scaled
    return (0j if cmath.isinf(z) else 1.0 / z), p._scaled[::-1]


def pair_residual(p, lam, u, side="right"):
    """Normwise backward error of an eigenpair (Tisseur 2000).

    ||A(lam) u|| / (||u|| sum_i ||A_i||_F |lam|^i) for ``side="right"``,
    ||u* A(lam)|| / (the same) for ``side="left"``.  Both sums are divided by
    |lam|^lo when |lam| <= 1, and by |lam|^hi otherwise, so one Horner sweep
    runs over the vectors C_k u (u* C_k) of the prescaled frame
    :func:`_in_disk` at w, with |w| <= 1, and nothing overflows.  Infinite lam
    is w = 0: ||A_hi u|| / (||A_hi||_F ||u||).  u is prescaled apart
    (:func:`_pow2_scaled`).  A zero u gives inf.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    if not u.any():
        return math.inf
    w, coeffs = _in_disk(p, lam)
    (u,), _, nu = _pow2_scaled([u])
    vecs = coeffs @ u if side == "right" else coeffs.transpose(0, 2, 1) @ u.conj()
    norms = np.linalg.norm(coeffs, axis=(1, 2))
    return float(np.linalg.norm(horner(vecs, w)) / (nu * max(horner(norms, abs(w)).real, FLOOR)))


def matrix_horner(coeffs, x):
    """sum_k coeffs[k] X^k by Horner's scheme, one matrix product per term."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc @ x + c
    return acc


def equation_residual(p, g):
    """||sum_i A_i g^i||_F normalized by sum_i ||A_i||_F, both from :func:`_pow2_scaled`."""
    *coeffs, g = as_working(*p.coeffs, g)
    coeffs, _, scale = _pow2_scaled(coeffs)
    return float(np.linalg.norm(matrix_horner(coeffs, g)) / scale)


# ---------------------------------------------------------------------------
# determinant-ratio oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    """Outcome of a determinant-ratio check."""

    passed: bool
    max_rel_err: float
    samples: int
    constant: complex
    tol: float

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} (max rel err {self.max_rel_err:.3e} over "
            f"{self.samples} samples, tol {self.tol:.1e})"
        )


def det_ratio_oracle(
    a,
    a_tilde,
    removed=(),
    added=(),
    samples=16,
    seed=0,
    fit_constant=False,
):
    """Check det a_tilde(z) * prod(z - removed) == C * det a(z) * prod(z - added).

    Sample points are drawn uniformly on the circles of ORACLE_RADII
    (straddling the unit circle), rejecting points within 1e-3 of any removed
    or added value.  Each sample's ratio, sign * exp(log|det a_tilde| -
    log|det a|) * prod(z - removed) / prod(z - added), comes from one stacked
    pivoted-LU ``slogdet`` per operand over all samples (phase and log
    magnitude, so no power of a norm overflows) and is independent of any
    shift formula.  Both operands are evaluated times one power of two
    (:func:`_pow2_scaled` of both), so no evaluation overflows and the ratio is
    unchanged.  C is 1, or with ``fit_constant`` the ratio at the sample with
    the largest log|det a(z) prod(z - added)|.

    Raises DegeneratePolynomial when rcond(a(z)) <= RANK_TOL at every sample,
    and DegenerateShift when 200 * samples draws leave too few samples.
    Returns an :class:`OracleReport`; ``passed`` means max |ratio / C - 1| <= ORACLE_TOL.
    """
    if a.n != a_tilde.n:
        raise DimensionMismatch("operands have different dimensions")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    removed = [complex(w) for w in removed]
    added = [complex(w) for w in added]
    for w in removed + added:
        if is_infinite(w):
            raise ValueError("oracle factors must be finite; handle infinity via fit_constant")
    avoid = np.array(removed + added, dtype=complex)

    rng = np.random.default_rng(seed)
    pts = []
    attempts = 0
    while len(pts) < samples:
        attempts += 1
        if attempts > 200 * samples:
            raise DegenerateShift("could not place oracle samples away from shift values")
        r = ORACLE_RADII[len(pts) % len(ORACLE_RADII)]
        z = r * cmath.exp(2j * math.pi * rng.random())
        if avoid.size and np.min(np.abs(z - avoid)) < 1e-3:
            continue
        pts.append(z)

    (ca, ct), _, _ = _pow2_scaled([np.array(a.coeffs), np.array(a_tilde.coeffs)])
    a, a_tilde = replace(a, coeffs=ca), replace(a_tilde, coeffs=ct)
    ma = evaluate(a, pts)
    rconds = []
    for m in ma:  # up to the first regular sample
        rconds.append(rcond(m))
        if rconds[-1] > RANK_TOL:
            break
    _check(DegeneratePolynomial, "det_ratio_oracle.rank", float(np.fmax.reduce(rconds)),
           RANK_TOL, "det a(z) vanishes at every sample point", op=">")
    sign_a, log_a = np.linalg.slogdet(ma)
    sign_t, log_t = np.linalg.slogdet(evaluate(a_tilde, pts))

    num = np.prod(np.subtract.outer(pts, removed), axis=1)
    den = np.prod(np.subtract.outer(pts, added), axis=1)
    # a ratio that overflows, or is 0/0 at an exactly singular sample, fails as inf or NaN
    with np.errstate(all="ignore"):
        ratio = sign_t / sign_a * np.exp(log_t - log_a) * num / den
        constant = ratio[np.argmax(log_a + np.log(np.abs(den)))] if fit_constant else 1.0 + 0.0j
        max_err = float(np.max(np.abs(ratio / constant - 1.0)))
    return OracleReport(max_err <= ORACLE_TOL, max_err, samples, complex(constant), ORACLE_TOL)


# ---------------------------------------------------------------------------
# serialization (.mp.json)
# ---------------------------------------------------------------------------

def float_texts(values):
    """``[repr(x) for x in values.tolist()]`` for a 1-d float64 array, from one orjson call.

    orjson writes the shortest round-trip digits that ``repr`` writes, and lays
    them out the same way for zero and 1e-4 <= |x| < 1e16; the other entries
    (``1e-05``, ``1e+16``, which orjson writes ``0.00001``, ``1e16``, and ``inf``
    and ``nan``, which it writes ``null``) are formatted again through one
    ``%r`` template.
    """
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    texts = text.split(",") if text else []
    size = np.abs(values)
    redo = np.flatnonzero(~((size < 1e16) & ((size >= 1e-4) | (size == 0))))
    if redo.size:
        again = ("%r," * redo.size % tuple(values[redo].tolist())).split(",")
        for i, text in zip(redo.tolist(), again):
            texts[i] = text
    return texts


def _pair_texts(arr):
    """``(imag, texts)`` for a layout of ``[re, im]`` pairs with ``%s`` slots: imag is the
    literal ``0.0`` or ``-0.0`` when every imaginary part is that zero (as from real
    data), and ``%s`` otherwise; texts (:func:`float_texts`) fill the slots in order."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    imag = arr.imag.tobytes()
    for literal in ("0.0", "-0.0"):
        if imag == np.float64(literal).tobytes() * arr.size:
            return literal, float_texts(arr.real.ravel())
    return "%s", float_texts(arr.view(float).ravel())


def write_poly(p, path):
    """Write a polynomial to the ``.mp.json`` format (bit-exact round trip).

    The bytes are those of ``json.dump(payload, indent=1)`` plus a newline,
    with every entry a ``[re, im]`` pair of shortest round-trip floats.  The
    layout is filled in as one template from :func:`_pair_texts` rather than
    through the encoder, whose ``indent`` mode runs in pure Python per value.
    """
    n = p.n
    imag, texts = _pair_texts(p.coeffs)
    pair = f"    [\n     %s,\n     {imag}\n    ]"
    row = "   [\n" + ",\n".join([pair] * n) + "\n   ]"
    mat = "  [\n" + ",\n".join([row] * n) + "\n  ]"
    body = ",\n".join([mat] * len(p.coeffs))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "n": {json.dumps(n)},\n "lo": {json.dumps(p.lo)},\n "coeffs": [\n')
        fh.write(body % tuple(texts))
        fh.write("\n ]\n}\n")


def _entry(value, where):
    """Raise ParseError at ``where`` unless ``value`` is a finite [re, im] pair."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise ParseError(f"{where}: expected a [re, im] pair, got {value!r}")
    try:
        z = complex(value[0], value[1])
    except OverflowError:
        raise ParseError(f"{where}: entry out of double range, got {value!r}") from None
    if not cmath.isfinite(z):
        raise ParseError(f"{where}: non-finite entry, got {value!r}")


_NUMBER_TYPES = frozenset((int, float))


def _coeff_array(raw, n):
    """The coefficients as one (len(raw), n, n) complex array, or None.

    None means some check failed: a shape other than len(raw) x n x n x 2, a
    leaf that is not a JSON number (bools included), or an entry that is
    non-finite or out of double range.  The tree is flattened one level at a
    time, each level's lengths checked as one set; a string or object in
    place of an array fails the same checks, because its items are strings.
    """
    nodes = raw
    try:
        for width in (n, n, 2):
            if set(map(len, nodes)) != {width}:
                return None
            nodes = list(chain.from_iterable(nodes))
    except TypeError:  # a number, bool or null in place of an array
        return None
    if not set(map(type, nodes)) <= _NUMBER_TYPES:
        return None
    try:
        arr = np.array(nodes, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(arr).all():
        return None
    return arr.view(complex).reshape(len(raw), n, n)


def _reject_coeffs(raw, n):
    """Raise the error, with its location, of coefficients _coeff_array refused."""
    for k, mat in enumerate(raw):
        if not isinstance(mat, list):
            raise ParseError(f"coeffs[{k}]: expected an array of rows")
        widths = {len(row) if isinstance(row, list) else -1 for row in mat}
        if len(widths) > 1 or -1 in widths:
            raise ParseError(f"coeffs[{k}]: ragged or malformed rows")
        if len(mat) != n or (mat and len(mat[0]) != n):
            raise DimensionMismatch(
                f"coeffs[{k}]: shape {len(mat)}x{len(mat[0]) if mat else 0}, expected {n}x{n}"
            )
        for i, row in enumerate(mat):
            for j, v in enumerate(row):
                _entry(v, f"coeffs[{k}][{i}][{j}]")
    raise ParseError("field 'coeffs': not an array of [re, im] pairs")


_POLY_KEYS = ("n", "lo", "coeffs")


def _read_object(path, keys):
    """The JSON object in a UTF-8 file, which must have ``keys``; else ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer literal beyond Python's digit limit
        raise ParseError(str(exc)) from exc
    if not isinstance(payload, dict):
        raise ParseError("top-level value must be an object")
    for key in keys:
        if key not in payload:
            raise ParseError(f"missing key {key!r}")
    return payload


def _container(lo, coeffs):
    """MatrixPoly when lo == 0, else LaurentPoly, of a (k, n, n) coefficient array."""
    if lo == 0:
        return MatrixPoly(tuple(coeffs))
    return LaurentPoly(lo, tuple(coeffs))


def _poly(payload):
    """The polynomial a ``.mp.json`` object (from :func:`_read_object`) holds, or the error
    of the first check of :func:`read_poly` that it fails."""
    n, lo, raw = (payload[key] for key in _POLY_KEYS)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"field 'n': expected a positive integer, got {n!r}")
    if not isinstance(lo, int) or isinstance(lo, bool):
        raise ParseError(f"field 'lo': expected an integer, got {lo!r}")
    if not isinstance(raw, list) or not raw:
        raise ParseError("field 'coeffs': expected a non-empty array")
    if lo > 0 or lo + len(raw) - 1 < 0:
        raise ParseError(
            f"coefficient range [{lo}, {lo + len(raw) - 1}] must contain power 0"
        )

    coeffs = _coeff_array(raw, n)
    if coeffs is None:
        _reject_coeffs(raw, n)
    return _container(lo, coeffs)


# The documented layout: keys n, lo, coeffs in this order, any JSON whitespace.
# n and lo are capped at 18 digits so int() never meets Python's digit limit;
# a longer one is left to the stdlib reader.
_WS = b" \t\n\r"
_NUMBER = b"0123456789.-+eE"
_HEAD = re.compile(rb"[ \t\n\r]*".join([
    b"", rb"\{", rb'"n"', b":", rb"([1-9][0-9]{0,17})", b",",
    rb'"lo"', b":", rb"(0|-[1-9][0-9]{0,17})", b",", rb'"coeffs"', b":",
]))
_HEAD_SHAPE = b'{"n":,"lo":,"coeffs":'.translate(None, _NUMBER)  # as _shape leaves it
_FLAT = bytes.maketrans(b"[]:}", b"  []")  # from the coeffs colon on: one flat array
_EMPTY_SLOTS = [int.from_bytes(pair, "little") for pair in (b"[,", b",]")]  # as "<u2"


def _skeleton(k, n):
    """``[[[[,],...],...],...]``: k n x n matrices of ``[re, im]`` pairs, numbers left out."""
    row = b"[" + b",".join([b"[,]"] * n) + b"]"
    mat = b"[" + b",".join([row] * n) + b"]"
    return b"[" + b",".join([mat] * k) + b"]"


def _shape(data):
    """``data`` without whitespace and number characters, or None if that would hide an
    empty ``[re, im]`` slot, the only place a number outside its slot can come from."""
    packed = data.translate(None, _WS)
    if len(packed) < 1 << 12:  # two bytes searches, cheaper than numpy's calls up to ~5 KB
        empty = b"[," in packed or b",]" in packed
    else:  # both pairs as 16-bit words at both byte offsets: one numpy pass each
        empty = any((np.frombuffer(packed, "<u2", (len(packed) - i) // 2, i) == word).any()
                    for i in (0, 1) for word in _EMPTY_SLOTS)
    return None if empty else packed.translate(None, _NUMBER)


def _flat_poly(data):
    """The polynomial of a file in the documented layout, from one flat parse; else None.

    The structure is checked as bytes: no ``[re, im]`` slot may be empty, and
    what remains without whitespace and number characters (:func:`_shape`)
    must be the header and :func:`_skeleton` of k coefficients.  Then every
    number sits in a slot and every comma separates two slots, so with the
    brackets blanked out orjson reads the coefficients as one flat array, and
    its grammar refuses every token that is not a JSON number in double range.
    None leaves the file to the stdlib reader.
    """
    head = _HEAD.match(data)
    shape = _shape(data) if head else None
    if shape is None:
        return None
    n, lo = int(head[1]), int(head[2])
    # a skeleton is k * (4n^2 + 2n + 2) + 1 bytes: lengths first, so a huge n allocates nothing
    k, rest = divmod(len(shape) - len(_HEAD_SHAPE) - 2, 4 * n * n + 2 * n + 2)
    if rest or k < 1 or lo + k - 1 < 0 or shape != _HEAD_SHAPE + _skeleton(k, n) + b"}":
        return None
    try:
        values = orjson.loads(memoryview(data.translate(_FLAT))[head.end() - 1:])
    except orjson.JSONDecodeError:
        return None
    arr = np.fromiter(values, float, len(values))
    if not np.isfinite(arr).all():
        return None
    return _container(lo, arr.view(complex).reshape(k, n, n))


def read_poly(path):
    """Read a ``.mp.json`` file; returns MatrixPoly when lo == 0, else LaurentPoly.

    Malformed input raises :class:`ParseError` (or :class:`DimensionMismatch`
    for a size that disagrees with ``n``) naming the first offending
    ``coeffs[k][i][j]``; entries must be finite JSON numbers within double
    range.  A file in the documented layout (``{"n": N, "lo": L, "coeffs":
    ...}``, these keys in this order, any JSON whitespace, as :func:`write_poly`
    and ``json.dump`` write it) is read in one flat orjson parse
    (:func:`_flat_poly`).  Every other file, and any file that route refuses,
    is read through the stdlib ``json`` module, whose result or error stands,
    so ``NaN`` literals, integers beyond 64 bits, a BOM and every error
    message behave as that parser makes them.
    """
    with open(path, "rb") as fh:
        poly = _flat_poly(fh.read())
    return poly if poly is not None else _poly(_read_object(path, _POLY_KEYS))
