"""Eigenvalue shifts for matrix polynomials and matrix Laurent polynomials.

Every shift here is one identity, the generalized Brauer theorem

    A~(z) = A(z) (I + U (zI - Lambda)^{-1} (Lambda - S) V*),

for an invariant pair sum_i A_i U Lambda^i = 0 and any V with V* U = I: the
eigenvalues of Lambda move to those of S, the rest of the spectrum stays,
and A~ is again a matrix (Laurent) polynomial with the support of A.  One
coefficient kernel, :func:`_shift_coeffs`, evaluates it.  Every single and
double shift is one gate, :func:`_gate`, and one apply step, :func:`_apply`,
which read the side and any infinity off each :class:`ShiftSpec`:

* a right shift of lambda to mu is the kernel with m = 1 (U = u, S = mu,
  V = v); a multishift is the kernel with an m-column packet;
* a left shift with factor y v* is the adjoint of a right shift of the
  adjoint coefficients A_i*, with conj(lambda) and conj(mu); a double shift
  is a right shift and then a left shift of its result, each spec gated on
  the function it transforms;
* a right shift with lambda or mu infinite is, in the apply step, the right
  shift 1/lambda -> 1/mu (1/inf = 0) of the reversal z^d A(1/z), reversed
  back; :func:`shift_from_infinity` and :func:`shift_to_infinity` are two
  spellings of it;
* the *-palindromic shift is a right shift lambda -> mu, the flip
  A_i -> A_{d-i}*, the same right shift again, and the flip back;
* a pencil shift of a matrix A is minus the constant coefficient of the
  kernel applied to zI - A.

A matrix polynomial is a :class:`~mpshift.core.LaurentPoly` with lo = 0
(:class:`~mpshift.core.MatrixPoly` fixes that), so each shift has one
function: the ``*_poly`` and ``*_laurent`` names of the right, left and
multi shifts are the same function.  Every result is built by
``dataclasses.replace`` and keeps the input's type.  The reversal-based
shifts require lo = 0.  Every shift is validated downstream by the
determinant-ratio oracle in :mod:`mpshift.core`; the kernel's sums run over
the stored support and are exact.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    EIGENPAIR_TOL,
    INF,
    RESIDUAL_TOL,
    _check,
    _pow2_scaled,
    _times,
    is_infinite,
    pair_residual,
    rcond,
    unit_vector,
)
from .errors import (
    DegenerateShift,
    DimensionMismatch,
    NotAnEigenpair,
    NotInKernel,
    NotInvariant,
    NotPalindromic,
    ShiftOverflow,
    SingularLambda,
    ZeroLambda,
    ZeroLambdaWithNegativePowers,
    ZeroMu,
)


@dataclass(frozen=True, eq=False)
class ShiftSpec:
    """Parameters of a single shift: move eigenvalue ``lam`` to ``mu``.

    ``vector`` is the right eigenvector u for a right shift, or the left
    eigenvector v for a left shift.  ``dual`` is the free vector of the
    rank-one factor (v for a right shift, y for a left shift); it defaults to
    ``vector`` and is always rescaled so that the required inner product
    (v* u, respectively v* y) equals one.  ``lam`` and ``mu`` may be infinite
    but not NaN, and the vectors must be finite (else DegenerateShift).  Both
    are prescaled apart for the checks, so neither one's scale matters.  Every
    shift reads ``side``: a spec of a side it does not take is DegenerateShift.
    """

    lam: complex
    mu: complex
    vector: np.ndarray
    dual: np.ndarray = None
    side: str = "right"

    def __post_init__(self):
        if self.side not in ("right", "left"):
            raise DegenerateShift(f"side must be 'right' or 'left', got {self.side!r}")
        if cmath.isnan(complex(self.lam)) or cmath.isnan(complex(self.mu)):
            raise DegenerateShift("lambda and mu must not be NaN")
        vec = np.asarray(self.vector, dtype=complex).reshape(-1)
        dual = vec if self.dual is None else np.asarray(self.dual, dtype=complex).reshape(-1)
        if not (np.isfinite(vec).all() and np.isfinite(dual).all()):
            raise DegenerateShift("shift and dual vectors must be finite")
        if not vec.any():
            raise DegenerateShift("shift vector must be nonzero")
        if dual.shape != vec.shape:
            raise DimensionMismatch("dual vector has a different length")
        (vec_s,), step, vec_norm = _pow2_scaled([vec])
        (dual,), _, dual_norm = _pow2_scaled([dual])
        ip = np.vdot(vec_s, dual)
        _check(DegenerateShift, "ShiftSpec.dual", abs(ip) / (vec_norm * dual_norm), 1e-14,
               "dual vector is orthogonal to the shift vector", op=">")
        dual = _times(dual / ip, step)  # v* u = 1 for the given u
        vec = vec.copy()
        vec.setflags(write=False)
        dual.setflags(write=False)
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "dual", dual)

    @property
    def q(self):
        """Rank-one factor: u v* for a right shift, y v* for a left shift."""
        if self.side == "right":
            return np.outer(self.vector, self.dual.conj())
        return np.outer(self.dual, self.vector.conj())


@dataclass(frozen=True, eq=False)
class MultiShiftSpec:
    """Invariant pair (U, Lambda) and target S for a simultaneous shift.

    V defaults to U (U* U)^{-1}; it must satisfy ||V* U - I||_F <= RESIDUAL_TOL = 1e-10.
    Every entry must be finite (else DegenerateShift).
    """

    u: np.ndarray
    lam: np.ndarray
    s: np.ndarray
    v: np.ndarray = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        n, m = u.shape
        if m >= n:
            raise DimensionMismatch(f"packet size m={m} must be < n={n}")
        lam = np.asarray(self.lam, dtype=complex).reshape(m, m)
        s = np.asarray(self.s, dtype=complex).reshape(m, m)
        given = (u, lam, s) if self.v is None else (u, lam, s, self.v)
        if not all(np.isfinite(np.asarray(arr, dtype=complex)).all() for arr in given):
            raise DegenerateShift("U, Lambda, S and V must be finite")
        v = np.linalg.pinv(u).conj().T if self.v is None else np.asarray(self.v, dtype=complex).reshape(n, m)
        gap = np.linalg.norm(v.conj().T @ u - np.eye(m))
        _check(DimensionMismatch, "MultiShiftSpec.dual", gap, RESIDUAL_TOL,
               "||V* U - I||_F = {:.2e} exceeds 1e-10", gap)
        for name, arr in (("u", u), ("lam", lam), ("s", s), ("v", v)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self):
        return self.u.shape[1]


# ---------------------------------------------------------------------------
# the shift kernel and its compositions
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # the gate at the end reports them
def _shift_coeffs(coeffs, lo, u, lam, s, v):
    """Coefficients of A(z) (I + U (zI - Lambda)^{-1} (Lambda - S) V*).

    Nonnegative powers gain (sum_{k>=0} A_{i+k+1} U Lambda^k)(Lambda - S) V*,
    negative powers lose (sum_{k>=0} A_{i-k} U Lambda^{-k-1})(Lambda - S) V*,
    with sums over the stored support; the top coefficient never changes.
    Every shift's result passes one gate here, ``shift.finite``: an entry
    beyond double range raises ShiftOverflow, not numpy's warnings.
    """
    hi = lo + len(coeffs) - 1
    n, m = u.shape
    out = [np.array(c, dtype=complex) for c in coeffs]
    diff = lam - s
    vstar = v.conj().T

    w = np.zeros((n, m), dtype=complex)
    for i in range(hi - 1, -1, -1):
        w = coeffs[i + 1 - lo] @ u + w @ lam
        out[i - lo] += w @ diff @ vstar

    if lo < 0:
        try:
            lam_inv = np.linalg.inv(lam)
        except np.linalg.LinAlgError as exc:
            raise SingularLambda("Lambda is singular; negative powers cannot be shifted") from exc
        acc = np.zeros((n, m), dtype=complex)
        for i in range(lo, 0):
            acc = (coeffs[i - lo] @ u + acc) @ lam_inv
            out[i - lo] -= acc @ diff @ vstar
    bad = sum(int(np.count_nonzero(~np.isfinite(c))) for c in out)
    _check(ShiftOverflow, "shift.finite", bad, 0,
           "{} shifted coefficient entries are beyond double range", bad)
    return out


def _right(coeffs, lo, lam, mu, u, v):
    """Right shift of lam to mu with Q = u v*: the kernel with m = 1."""
    return _shift_coeffs(coeffs, lo, u[:, None], np.array([[lam]]), np.array([[mu]]), v[:, None])


def _adjoint(coeffs):
    return [c.conj().T for c in coeffs]


def _left(coeffs, lo, lam, mu, v, y):
    """Left shift of lam to mu with factor y v*: the adjoint of a right shift of A_i*."""
    return _adjoint(_right(_adjoint(coeffs), lo, lam.conjugate(), mu.conjugate(), v, y))


# ---------------------------------------------------------------------------
# single and double shifts
# ---------------------------------------------------------------------------

def _check_sides(specs, sides):
    """DegenerateShift unless the specs' sides are ``sides``, in order."""
    got = tuple(spec.side for spec in specs)
    if got != sides:
        want = " and then ".join(f"a {side} spec" for side in sides)
        raise DegenerateShift(f"shift needs {want}, got {', '.join(got)}")


def _pencil_residual(a, u, lam):
    """||A U - U Lambda||_F / (||A||_F ||U||_F), A (with Lambda) and U prescaled apart."""
    (a,), step, scale = _pow2_scaled([a])
    (u,), _, u_norm = _pow2_scaled([u])
    return np.linalg.norm(a @ u - u @ _times(lam, step)) / (scale * u_norm)


def right_shift_pencil(a, spec):
    """Classical rank-one shift of one matrix eigenvalue: A + (mu-lam) u v*."""
    _check_sides((spec,), ("right",))
    a = np.asarray(a, dtype=complex)
    res = _pencil_residual(a, spec.vector[:, None], np.array([[spec.lam]]))
    _check(NotAnEigenpair, "right_shift_pencil.eigenpair", res, EIGENPAIR_TOL,
           "||A u - lam u|| residual {:.2e} exceeds {}", res, EIGENPAIR_TOL)
    if spec.mu == spec.lam:
        return a.copy()
    return -_right([-a, np.eye(len(a))], 0, spec.lam, spec.mu, spec.vector, spec.dual)[0]


def _gate(p, spec, alone):
    """Check one spec on p: infinity (a lone right spec, lo = 0, a nonzero finite
    partner), lambda != 0 with negative powers, the eigenpair on the spec's side."""
    lam_inf = is_infinite(spec.lam)
    if lam_inf or is_infinite(spec.mu):
        if not alone or spec.side != "right":
            raise ZeroMu("an infinite lambda or mu needs a single right shift")
        if lam_inf and is_infinite(spec.mu):
            raise ZeroMu("both lambda and mu are infinite; nothing to shift")
        if p.lo != 0:
            raise DimensionMismatch("infinity shifts act on matrix polynomials")
        if spec.mu == 0:
            raise ZeroMu("target mu must be nonzero")
        if spec.lam == 0:
            raise ZeroLambda("lambda must be nonzero")
    if p.lo < 0 and spec.lam == 0:
        raise ZeroLambdaWithNegativePowers("lambda = 0 with negative powers present")
    res = pair_residual(p, spec.lam, spec.vector, spec.side)
    error, name, what = ((NotInKernel, "shift.kernel", "||A_d u||") if lam_inf
                         else (NotAnEigenpair, "shift.eigenpair", spec.side + " eigenpair"))
    _check(error, name, res, EIGENPAIR_TOL, "{} residual {:.2e} exceeds {}", what, res,
           EIGENPAIR_TOL)


def _apply(p, spec):
    """p after one gated shift.  An infinite lambda or mu is the right shift
    1/lambda -> 1/mu (1/inf = 0) of the reversed coefficients."""
    if spec.mu == spec.lam:
        return p
    if is_infinite(spec.lam) or is_infinite(spec.mu):
        lam, mu = (0j if is_infinite(z) else 1 / z for z in (spec.lam, spec.mu))
        coeffs = _right(p.coeffs[::-1], 0, lam, mu, spec.vector, spec.dual)[::-1]
    else:
        shift = _right if spec.side == "right" else _left
        coeffs = shift(p.coeffs, p.lo, spec.lam, spec.mu, spec.vector, spec.dual)
    return replace(p, coeffs=coeffs)


def _shift(p, specs, sides):
    """Every single and double shift: check the sides, then gate each spec on the
    function it transforms (p, or the result of the specs before it) and apply it.
    A shift whose every spec has mu = lambda returns p."""
    _check_sides(specs, sides)
    for spec in specs:
        _gate(p, spec, len(specs) == 1)
        p = _apply(p, spec)
    return p


def right_shift_laurent(p, spec):
    """Shift one eigenvalue; the support (lo, hi) and A_hi are preserved.

    An infinite ``lam`` or ``mu`` needs lo = 0 (see :func:`shift_from_infinity`
    and :func:`shift_to_infinity`).  Also bound as ``right_shift_poly``.
    """
    return _shift(p, (spec,), ("right",))


def left_shift_laurent(p, spec):
    """Left-eigenvector analogue of :func:`right_shift_laurent` (finite values only).

    Also bound as ``left_shift_poly``.
    """
    return _shift(p, (spec,), ("left",))


# One function, two public names.  The ``*_poly`` name is bound last, so a
# scan of the module's attributes (as perfbench's spans do) names each
# function after it.
right_shift_poly = right_shift_laurent
left_shift_poly = left_shift_laurent


def double_shift_laurent(p, right_spec, left_spec):
    """A right shift, then a left shift of its result, on which the left spec is gated.

    So lambda1 = lambda2 clears both copies of a defective double eigenvalue: a left
    null vector w of A(lambda) stays one after the right shift iff w* A'(lambda) u = 0.
    For distinct eigenvalues the order does not matter."""
    return _shift(p, (right_spec, left_spec), ("right", "left"))


# ---------------------------------------------------------------------------
# multishifts
# ---------------------------------------------------------------------------

def multishift_pencil(a, ms):
    """Move the eigenvalues of an invariant pair of A to those of S: A - U (Lambda - S) V*."""
    a = np.asarray(a, dtype=complex)
    res = _pencil_residual(a, ms.u, ms.lam)
    _check(NotInvariant, "multishift_pencil.invariant", res, EIGENPAIR_TOL,
           "||A U - U Lambda|| residual {:.2e} exceeds {}", res, EIGENPAIR_TOL)
    if ms.m == 1:
        return right_shift_pencil(a, ShiftSpec(ms.lam[0, 0], ms.s[0, 0], ms.u[:, 0], ms.v[:, 0]))
    if np.array_equal(ms.s, ms.lam):
        return a.copy()
    return -_shift_coeffs([-a, np.eye(len(a))], 0, ms.u, ms.lam, ms.s, ms.v)[0]


def multishift_laurent(p, ms):
    """Packet shift (Lambda nonsingular when lo < 0); m = 1 is the single right shift.

    Also bound as ``multishift_poly``.
    """
    from .spectra import invariant_pair_residual

    if p.lo < 0:
        _check(SingularLambda, "multishift.rank", rcond(ms.lam), 1e-14,
               "Lambda is singular; negative powers cannot be shifted", op=">")
    res = invariant_pair_residual(p, ms.u, ms.lam)
    _check(NotInvariant, "multishift.invariant", res, EIGENPAIR_TOL,
           "invariant-pair residual {:.2e} exceeds {}", res, EIGENPAIR_TOL)
    if ms.m == 1:
        # through ShiftSpec, so m = 1 matches right_shift_laurent bit for bit
        return right_shift_laurent(p, ShiftSpec(ms.lam[0, 0], ms.s[0, 0], ms.u[:, 0], ms.v[:, 0]))
    if np.array_equal(ms.s, ms.lam):
        return p
    return replace(p, coeffs=_shift_coeffs(p.coeffs, p.lo, ms.u, ms.lam, ms.s, ms.v))


multishift_poly = multishift_laurent


# ---------------------------------------------------------------------------
# shifts from and to infinity
# ---------------------------------------------------------------------------

def shift_from_infinity(p, mu, u, v=None):
    """Replace one eigenvalue at infinity by finite mu != 0: the right shift inf -> mu.

    Requires A_d u = 0.  The reversal has the eigenvalue 0 there, shifted to
    1/mu: coefficients become A_i - mu^{-1} A_{i-1} Q with A_0 unchanged;
    all finite eigenvalues are preserved and the determinant gains the
    factor (1 - z/mu).
    """
    if is_infinite(mu):  # inf or NaN: not "nothing to shift" or a degenerate spec
        raise ZeroMu("target mu must be finite")
    return right_shift_laurent(p, ShiftSpec(INF, mu, u, v))


def shift_to_infinity(p, lam, u, v=None):
    """Send the finite eigenvalue lam != 0 to infinity: the right shift lam -> inf.

    The reversal has the eigenvalue 1/lam, shifted to 0: coefficients become
    A_i + sum_{k=0}^{i-1} lam^{-k-1} A_{i-k-1} Q with A_0 unchanged; the new
    leading coefficient annihilates u.
    """
    if is_infinite(lam):  # inf or NaN: not "nothing to shift" or a degenerate spec
        raise ZeroLambda("lambda must be finite")
    return right_shift_laurent(p, ShiftSpec(lam, INF, u, v))


# ---------------------------------------------------------------------------
# palindromic double shift
# ---------------------------------------------------------------------------

def _flip(coeffs):
    """A_i -> A_{d-i}*, the map that fixes a *-palindromic polynomial."""
    return _adjoint(coeffs[::-1])


def _palindromic_gap(coeffs):
    """The coefficients prescaled, 2^-e, their scale, and max_i ||A_i - A_{d-i}*||_F of them."""
    coeffs, step, scale = _pow2_scaled(coeffs)
    return coeffs, step, scale, max(np.linalg.norm(a - b) for a, b in zip(coeffs, _flip(coeffs)))


def palindromic_shift(p, lam, mu, u):
    """Move the eigenvalue pair (lam, 1/conj(lam)) of a *-palindromic polynomial
    to (mu, 1/conj(mu)), preserving A_i = A_{d-i}^*.

    A right shift lam -> mu with Q = u u*/(u* u), then the same right shift
    conjugated by the flip A_i -> A_{d-i}*, which moves the partner
    1/conj(lam).  The output is explicitly re-symmetrized (averaging A_i with
    A_{d-i}^*); the deviation before that is checked against 1e-12 * scale.
    Deviations are measured on prescaled coefficients and reported in the
    input's units.  lam = 0 (the pair (0, infinity)) needs no special case.
    """
    if p.lo != 0:
        raise DimensionMismatch("palindromic shift acts on matrix polynomials")
    coeffs, step, scale, dev = _palindromic_gap(p.coeffs)
    _check(NotPalindromic, "palindromic_shift.input", dev / scale, 1e-12,
           "||A_i - A_(d-i)*|| deviation {:.2e} exceeds 1e-12*scale", dev / step)
    lam, mu = complex(lam), complex(mu)
    res = pair_residual(p, lam, u)
    _check(NotAnEigenpair, "palindromic_shift.eigenpair", res, EIGENPAIR_TOL,
           "right eigenpair residual {:.2e} exceeds {}", res, EIGENPAIR_TOL)
    if mu == lam:
        return p
    if abs(lam * lam.conjugate() - 1.0) < 1e-8:
        warnings.warn("lambda * conj(lambda) is close to 1: the shifted pair nearly "
                      "coincides", stacklevel=2)
    uh = unit_vector(u)
    ahat = _right(coeffs, 0, lam, mu, uh, uh)
    out, out_step, out_scale, dev = _palindromic_gap(_flip(_right(_flip(ahat), 0, lam, mu, uh, uh)))
    step *= out_step
    if dev > 1e-12 * out_scale:
        warnings.warn(f"pre-symmetrization palindromic deviation {dev / step:.2e} "
                      "exceeds 1e-12*scale", stacklevel=2)
    _check(NotAnEigenpair, "palindromic_shift.output", dev / out_scale, 1e-6,
           "palindromic shift lost structure (deviation {:.2e}); eigenpair too inaccurate",
           dev / step)
    return replace(p, coeffs=[_times((a + b) / 2, 1 / step) for a, b in zip(out, _flip(out))])
