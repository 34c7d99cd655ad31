"""Eigenvalue shifts for matrix polynomials and matrix Laurent polynomials.

Every shift here is one identity, the generalized Brauer theorem

    A~(z) = A(z) (I + U (zI - Lambda)^{-1} (Lambda - S) V*),

for an invariant pair sum_i A_i U Lambda^i = 0 and any V with V* U = I: the
eigenvalues of Lambda move to those of S, the rest of the spectrum stays,
and A~ is again a matrix (Laurent) polynomial with the support of A.  One
coefficient kernel, :func:`_shift_coeffs`, evaluates it.  Each public shift
checks its own inputs and then composes the kernel with reversal, adjoint
or both:

* a right shift of lambda to mu is the kernel with m = 1 (U = u, S = mu,
  V = v); a multishift is the kernel with an m-column packet;
* a left shift with factor y v* is the adjoint of a right shift of the
  adjoint coefficients A_i*, with conj(lambda) and conj(mu); a double shift
  is one right shift and one left shift;
* a shift from infinity is a right shift 0 -> 1/mu of the reversal
  z^d A(1/z), reversed back; a shift to infinity reverses around
  1/lambda -> 0;
* the *-palindromic shift is a right shift lambda -> mu, the flip
  A_i -> A_{d-i}*, the same right shift again, and the flip back.

A matrix polynomial is a :class:`~mpshift.core.LaurentPoly` with lo = 0
(:class:`~mpshift.core.MatrixPoly` fixes that), so each shift has one
function: the ``*_poly`` and ``*_laurent`` names of the right, left and
multi shifts are the same function.  Every result is built by
``dataclasses.replace`` and keeps the input's type.  The reversal-based
shifts require lo = 0.  Every shift is validated downstream by the
determinant-ratio oracle in :mod:`mpshift.core`; the kernel's sums are exact
(finite) for polynomial data.  For truncated Laurent series the sums run
over the stored support only and the result keeps the ``truncated`` flag,
since the dropped tail decays geometrically.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    INF,
    _pow2_scaled,
    _times,
    is_infinite,
    pair_residual,
    rcond,
    reverse,
    unit_vector,
)
from .errors import (
    CoincidentEigenvalues,
    DegenerateShift,
    DimensionMismatch,
    NotAnEigenpair,
    NotInKernel,
    NotInvariant,
    NotPalindromic,
    SingularLambda,
    ZeroLambda,
    ZeroLambdaWithNegativePowers,
    ZeroMu,
)

EIGENPAIR_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ShiftSpec:
    """Parameters of a single shift: move eigenvalue ``lam`` to ``mu``.

    ``vector`` is the right eigenvector u for a right shift, or the left
    eigenvector v for a left shift.  ``dual`` is the free vector of the
    rank-one factor (v for a right shift, y for a left shift); it defaults to
    ``vector`` and is always rescaled so that the required inner product
    (v* u, respectively v* y) equals one.  ``lam`` and ``mu`` may be infinite
    but not NaN, and the vectors must be finite (else DegenerateShift).  Both
    are prescaled apart for the checks, so neither one's scale matters.
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
        if abs(ip) <= 1e-14 * vec_norm * dual_norm:
            raise DegenerateShift("dual vector is orthogonal to the shift vector")
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

    V defaults to U (U* U)^{-1}; it must satisfy ||V* U - I||_F <= 1e-10.
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
        if not gap <= 1e-10:
            raise DimensionMismatch(f"||V* U - I||_F = {gap:.2e} exceeds 1e-10")
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

def _shift_coeffs(coeffs, lo, u, lam, s, v):
    """Coefficients of A(z) (I + U (zI - Lambda)^{-1} (Lambda - S) V*).

    Nonnegative powers gain (sum_{k>=0} A_{i+k+1} U Lambda^k)(Lambda - S) V*,
    negative powers lose (sum_{k>=0} A_{i-k} U Lambda^{-k-1})(Lambda - S) V*,
    with sums over the stored support; the top coefficient never changes.
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
# single shifts
# ---------------------------------------------------------------------------

def _pencil_residual(a, u, lam):
    """||A U - U Lambda||_F / (||A||_F ||U||_F), A (with Lambda) and U prescaled apart."""
    (a,), step, scale = _pow2_scaled([a])
    (u,), _, u_norm = _pow2_scaled([u])
    return np.linalg.norm(a @ u - u @ _times(lam, step)) / (scale * u_norm)


def right_shift_pencil(a, spec):
    """Classical rank-one shift of one matrix eigenvalue: A + (mu-lam) u v*."""
    a = np.asarray(a, dtype=complex)
    u = spec.vector
    res = _pencil_residual(a, u[:, None], np.array([[spec.lam]]))
    if not res <= EIGENPAIR_TOL:
        raise NotAnEigenpair(f"||A u - lam u|| residual {res:.2e} exceeds {EIGENPAIR_TOL}")
    if spec.mu == spec.lam:
        return a.copy()
    return a + (spec.mu - spec.lam) * np.outer(u, spec.dual.conj())


def _check_single(p, spec, side):
    """Gate of a finite single shift: lambda != 0 with negative powers, and the eigenpair."""
    if is_infinite(spec.lam) or is_infinite(spec.mu):
        raise ZeroMu("infinite lambda or mu: only the right shift routes to the infinity shifts")
    if p.lo < 0 and spec.lam == 0:
        raise ZeroLambdaWithNegativePowers("lambda = 0 with negative powers present")
    res = pair_residual(p, spec.lam, spec.vector, side)
    if not res <= EIGENPAIR_TOL:
        raise NotAnEigenpair(f"{side} eigenpair residual {res:.2e} exceeds {EIGENPAIR_TOL}")


def _single_shift(p, spec, side):
    _check_single(p, spec, side)
    if spec.mu == spec.lam:
        return p
    shift = _right if side == "right" else _left
    return replace(p, coeffs=shift(p.coeffs, p.lo, spec.lam, spec.mu, spec.vector, spec.dual))


def right_shift_laurent(p, spec):
    """Shift one eigenvalue; the support (lo, hi) and A_hi are preserved.

    Infinite ``lam`` or ``mu`` are routed to :func:`shift_from_infinity` or
    :func:`shift_to_infinity` respectively, which need lo = 0.  Also bound
    as ``right_shift_poly``.
    """
    lam_inf, mu_inf = is_infinite(spec.lam), is_infinite(spec.mu)
    if lam_inf and mu_inf:
        raise ZeroMu("both lambda and mu are infinite; nothing to shift")
    if lam_inf:
        return shift_from_infinity(p, spec.mu, spec.vector, spec.dual)
    if mu_inf:
        return shift_to_infinity(p, spec.lam, spec.vector, spec.dual)
    return _single_shift(p, spec, "right")


def left_shift_laurent(p, spec):
    """Left-eigenvector analogue of :func:`right_shift_laurent` (finite values only).

    Also bound as ``left_shift_poly``.
    """
    return _single_shift(p, spec, "left")


# One function, two public names.  The ``*_poly`` name is bound last, so a
# scan of the module's attributes (as perfbench's spans do) names each
# function after it.
right_shift_poly = right_shift_laurent
left_shift_poly = left_shift_laurent


def double_shift_laurent(p, right_spec, left_spec):
    """Shift two distinct eigenvalues at once: a right shift followed by a left shift.

    The composition order does not matter (both yield the same series); this
    routine applies the right shift first.  lambda1 = lambda2 is rejected.
    Both eigenpairs are checked on ``p`` before either shift is applied.
    """
    if right_spec.lam == left_spec.lam:
        raise CoincidentEigenvalues("double shift requires lambda1 != lambda2")
    _check_single(p, right_spec, "right")
    _check_single(p, left_spec, "left")
    coeffs = p.coeffs
    for spec, shift in ((right_spec, _right), (left_spec, _left)):
        if spec.mu != spec.lam:
            coeffs = shift(coeffs, p.lo, spec.lam, spec.mu, spec.vector, spec.dual)
    return replace(p, coeffs=coeffs)


# ---------------------------------------------------------------------------
# multishifts
# ---------------------------------------------------------------------------

def multishift_pencil(a, ms):
    """Move the eigenvalues of an invariant pair of A to those of S: A - U (Lambda - S) V*."""
    a = np.asarray(a, dtype=complex)
    res = _pencil_residual(a, ms.u, ms.lam)
    if not res <= EIGENPAIR_TOL:
        raise NotInvariant(f"||A U - U Lambda|| residual {res:.2e} exceeds {EIGENPAIR_TOL}")
    if ms.m == 1:
        return right_shift_pencil(a, ShiftSpec(ms.lam[0, 0], ms.s[0, 0], ms.u[:, 0], ms.v[:, 0]))
    if np.array_equal(ms.s, ms.lam):
        return a.copy()
    return a - ms.u @ (ms.lam - ms.s) @ ms.v.conj().T


def multishift_laurent(p, ms):
    """Packet shift (Lambda nonsingular when lo < 0); m = 1 is the single right shift.

    Also bound as ``multishift_poly``.
    """
    from .spectra import invariant_pair_residual

    if p.lo < 0:
        if not rcond(ms.lam) > 1e-14:
            raise SingularLambda("Lambda is singular; negative powers cannot be shifted")
    res = invariant_pair_residual(p, ms.u, ms.lam)
    if not res <= EIGENPAIR_TOL:
        raise NotInvariant(f"invariant-pair residual {res:.2e} exceeds {EIGENPAIR_TOL}")
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

def _reversed_right_shift(p, spec):
    """Right shift of the reversal z^d A(1/z), reversed back."""
    rev = reverse(p)
    coeffs = _right(rev.coeffs, 0, spec.lam, spec.mu, spec.vector, spec.dual)
    return reverse(replace(rev, coeffs=coeffs))


def shift_from_infinity(p, mu, u, v=None):
    """Replace one eigenvalue at infinity by finite mu != 0.

    Requires A_d u = 0.  The reversal has the eigenvalue 0 there, shifted to
    1/mu: coefficients become A_i - mu^{-1} A_{i-1} Q with A_0 unchanged;
    all finite eigenvalues are preserved and the determinant gains the
    factor (1 - z/mu).
    """
    if p.lo != 0:
        raise DimensionMismatch("infinity shifts act on matrix polynomials")
    mu = complex(mu)
    if mu == 0:
        raise ZeroMu("target mu must be nonzero")
    if is_infinite(mu):
        raise ZeroMu("target mu must be finite")
    spec = ShiftSpec(0.0, 1.0 / mu, u, v)
    res = pair_residual(p, INF, spec.vector)
    if not res <= EIGENPAIR_TOL:
        raise NotInKernel(f"||A_d u|| residual {res:.2e} exceeds {EIGENPAIR_TOL}")
    return _reversed_right_shift(p, spec)


def shift_to_infinity(p, lam, u, v=None):
    """Send the finite eigenvalue lam != 0 to infinity.

    The reversal has the eigenvalue 1/lam, shifted to 0: coefficients become
    A_i + sum_{k=0}^{i-1} lam^{-k-1} A_{i-k-1} Q with A_0 unchanged; the new
    leading coefficient annihilates u.
    """
    if p.lo != 0:
        raise DimensionMismatch("infinity shifts act on matrix polynomials")
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("lambda must be nonzero")
    if is_infinite(lam):
        raise ZeroLambda("lambda must be finite")
    spec = ShiftSpec(1.0 / lam, 0.0, u, v)
    res = pair_residual(p, lam, spec.vector)
    if not res <= EIGENPAIR_TOL:
        raise NotAnEigenpair(f"eigenpair residual {res:.2e} exceeds {EIGENPAIR_TOL}")
    return _reversed_right_shift(p, spec)


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
    if not dev <= 1e-12 * scale:
        raise NotPalindromic(f"||A_i - A_(d-i)*|| deviation {dev / step:.2e} exceeds 1e-12*scale")
    lam, mu = complex(lam), complex(mu)
    res = pair_residual(p, lam, u)
    if not res <= EIGENPAIR_TOL:
        raise NotAnEigenpair(f"eigenpair residual {res:.2e} exceeds {EIGENPAIR_TOL}")
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
    if not dev <= 1e-6 * out_scale:
        raise NotAnEigenpair(
            f"palindromic shift lost structure (deviation {dev / step:.2e}); "
            "eigenpair too inaccurate"
        )
    return replace(p, coeffs=[_times((a + b) / 2, 1 / step) for a, b in zip(out, _flip(out))])
