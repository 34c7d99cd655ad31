"""Canonical (Wiener-Hopf) factorizations of quadratic matrix Laurent polynomials
and matrix polynomials, and their closed-form updates under eigenvalue shifts.

For A(z) = z^{-1} A_{-1} + A_0 + z A_1 with no eigenvalues on the unit
circle, the canonical factorization A(z) = (I - z R+) K+ (I - z^{-1} G+)
exists with spectral radii of G+ and R+ below one; G+ and R+ are the
minimal solvents of the two one-sided quadratic matrix equations.  They are
computed here by cyclic reduction, whose error decays like sigma^(2^k).
The inverse A(z)^{-1} has Laurent coefficients expressible through G+, R+
and H_0.  The same cyclic reduction run factors A(z^{-1}): its B_0 tends to
H_0^{-1}, and B_0 + A_0 - Hhat to the K- of A(z^{-1}).

Shifting an eigenvalue lambda (|lambda| < 1) of A(z) to mu (|mu| < 1) keeps
R+ and K+ and replaces G+ by G+ + (mu - lambda) u v*; the double-sided
update additionally transforms H_0 in closed form, fills the shifted limits
from it and K+, and reads the reversed factors off them.  These updates are
what make shift-accelerated equation solving cheap: no factorization has to
be recomputed from scratch.

Cyclic reduction and the reversed factorization compute in real arithmetic
when their inputs have no imaginary part (QBD blocks are real); every
factor they return is complex128 either way.

A factorization residual is the sum of the Frobenius norms of its
coefficients, a bound on the whole unit circle; a check with only a
pointwise reference evaluates its points as one stack.  Every gate is one
call of :func:`~mpshift.core._check`.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    RESIDUAL_TOL,
    LaurentPoly,
    MatrixPoly,
    _check,
    _pow2_scaled,
    _square_coeffs,
    _times,
    as_working,
    equation_residual,
    horner,
    rcond,
)
from .errors import (
    DegenerateShift,
    DimensionMismatch,
    ModulusConstraintViolated,
    NoConvergence,
    NotASolvent,
    ShiftOutsideDisk,
    SingularH0,
    SingularPivot,
    ZeroLambda,
)
from .shifts import ShiftSpec, _check_sides, left_shift_poly, right_shift_laurent
from .spectra import polyeig, spectral_radius

RADIUS_MARGIN = 1e-8


@dataclass(frozen=True, eq=False)
class QuadFactorization:
    """Factors of A(z) = (I - z rplus) kplus (I - z^{-1} gplus); ``limits`` = (B_0, Hhat,
    step) are cyclic reduction's accumulators at its stop, on the blocks times ``step``."""

    gplus: np.ndarray
    rplus: np.ndarray
    kplus: np.ndarray
    iterations: int
    residual: float
    rho_g: float
    rho_r: float
    limits: tuple


@dataclass(frozen=True, eq=False)
class ReversedFactorization:
    """Factors of A(z^{-1}) = (I - z rminus) kminus (I - z^{-1} gminus); w is H_0.

    ``rho_g`` and ``rho_r``, the spectral radii of G- and R-, are computed
    on first read (in the working dtype) and cached.
    """

    gminus: np.ndarray
    rminus: np.ndarray
    kminus: np.ndarray
    w: np.ndarray
    residual: float

    @functools.cached_property
    def rho_g(self):
        return spectral_radius(as_working(self.gminus)[0])

    @functools.cached_property
    def rho_r(self):
        return spectral_radius(as_working(self.rminus)[0])


@dataclass(frozen=True, eq=False)
class PolyFactorization:
    """Factors of A(z) = U(z) (z I - g) with rho(g) < 1 (minimal solvent g)."""

    g: np.ndarray
    ucoeffs: tuple


def _promote(*arrays):
    """Working-dtype results as the complex128 arrays every public result holds."""
    return tuple(np.asarray(a, dtype=complex) for a in arrays)


def _residual_coeffs(am1, a0, a1, g, r, k):
    """Coefficients E_{-1}, E_0, E_1 of A(z) - (I - z R) K (I - z^{-1} G)."""
    kg = k @ g
    return am1 + kg, a0 - k - r @ kg, a1 + r @ k


def _quad_fact_residual(em1, e0, e1, scale):
    """(||E_{-1}||_F + ||E_0||_F + ||E_1||_F) / scale: a bound on ||E_{-1}/z + E_0 + z E_1||_F
    / scale at every |z| = 1, and by Parseval at most sqrt(3) times its maximum over 8
    equispaced points.  A non-finite E gives NaN or inf."""
    return (np.linalg.norm(em1) + np.linalg.norm(e0) + np.linalg.norm(e1)) / scale


def _factor_residual(am1, a0, a1, g, r, k):
    """:func:`_quad_fact_residual` of G, R, K in the working dtype; A_i and K prescaled."""
    am1, a0, a1, g, r, k = as_working(am1, a0, a1, g, r, k)
    (am1, a0, a1), step, scale = _pow2_scaled((am1, a0, a1))
    return _quad_fact_residual(*_residual_coeffs(am1, a0, a1, g, r, _times(k, step)), scale)


def cr_quadratic(am1, a0, a1, tol=1e-14, maxit=64, strict_radius=True):
    """Canonical factorization of z^{-1}A_{-1} + A_0 + z A_1 by cyclic reduction.

    Iterates the standard quadratically convergent recurrences
        B_{-1} <- -B_{-1} S B_{-1},  B_1 <- -B_1 S B_1,
        B_0 <- B_0 - B_{-1} S B_1 - B_1 S B_{-1},
        Hhat <- Hhat - B_1 S B_{-1},
    with S = B_0^{-1} formed once per step; [X Y] = S [B_{-1} B_1] and
    [B_{-1}; B_1] [X Y] give all four block products.  It stops when
    min(||B_{-1}||_inf, ||B_1||_inf) drops below tol (finite, >= 0) times the
    input scale; a norm that is not finite raises NoConvergence naming the
    step, a test still failing after maxit (>= 1) steps one without.  Hhat
    tends to K+, G+ = -Hhat^{-1} A_{-1}, R+ = -A_1 Hhat^{-1}
    (:func:`_limit_factors`); one gate, at 1e-10 relative, reads the two
    residuals it returns, and NaN fails it.  The blocks are prescaled
    (:func:`~mpshift.core._pow2_scaled`, the gates' scale) and K+ multiplied
    back; G+ and R+ do not depend on the scale.  B_0 and Hhat stay on the
    result as its ``limits``, for :func:`reversed_factorization`.

    With ``strict_radius`` the spectral radii of G+ and R+ must be below one
    with margin 1e-8 (a genuine canonical factorization); pass False when
    eigenvalues may sit on the unit circle and only the minimal solvent is
    wanted (convergence is then linear instead of quadratic).
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least 0, got {tol!r}")
    if not maxit >= 1:
        raise ValueError(f"maxit must be at least 1, got {maxit!r}")
    am1, a0, a1 = as_working(am1, a0, a1)
    if not (am1.shape == a0.shape == a1.shape) or a0.shape[0] != a0.shape[1]:
        raise DimensionMismatch("coefficients must be square and equally sized")
    (am1, a0, a1), step, scale = _pow2_scaled((am1, a0, a1))  # K+ is scaled back at the end
    n = a0.shape[0]
    bs, b0, hhat = np.stack((am1, a1)), a0.copy(), a0.copy()  # bs = (B_-1, B_1)
    norms = np.abs(bs).sum(axis=2).max(axis=1)  # ||B_-1||_inf, ||B_1||_inf
    denom = norms[0] + np.linalg.norm(a0, np.inf) + norms[1]
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises NoConvergence below
        while not norms.min() <= tol * denom and k < maxit:
            try:
                s = np.linalg.inv(b0)
            except np.linalg.LinAlgError as exc:
                raise SingularPivot(f"singular pivot at cyclic reduction step {k}", step=k) from exc
            # [B_-1; B_1] [X Y] = [[B_-1 X, B_-1 Y], [B_1 X, B_1 Y]]
            p = bs.reshape(2 * n, n) @ (s @ np.concatenate(bs, axis=1))
            b0 -= p[:n, n:] + p[n:, :n]
            hhat -= p[n:, :n]
            np.negative(p[:n, :n], out=bs[0])
            np.negative(p[n:, n:], out=bs[1])
            norms = np.abs(bs).sum(axis=2).max(axis=1)
            _check(NoConvergence, "cr_quadratic.finite", norms.max(), math.inf,
                   "cyclic reduction blocks are not finite at step {0} (||B_-1||: {1[0]:.2e}, "
                   "||B_1||: {1[1]:.2e})", k, norms, op="<", step=k)
            k += 1
    _check(NoConvergence, "cr_quadratic.stop", norms.min(), tol * denom,
           "cyclic reduction did not converge in {} iterations "
           "(eigenvalues on the unit circle without a gap?)", maxit)
    gplus, rplus, kplus, fact_res, res_r = _limit_factors(am1, a0, a1, hhat, scale, k)
    _check(NoConvergence, "cr_quadratic.residual", np.maximum(fact_res, res_r), RESIDUAL_TOL,
           "cyclic reduction limit fails its residual checks "
           "(factorization residual {:.2e}, R+ residual {:.2e})", fact_res, res_r)
    rho_g, rho_r = spectral_radius(gplus), spectral_radius(rplus)
    if strict_radius:
        _check(NoConvergence, "cr_quadratic.radius", np.maximum(rho_g, rho_r), 1.0 - RADIUS_MARGIN,
               "computed factors are not contractive (rho(G+)={:.6f}, "
               "rho(R+)={:.6f}); no canonical factorization", rho_g, rho_r, op="<")
    # G+ and R+ are minus a solve: promoting before the negation gives real
    # data the -0.0 imaginary parts that complex arithmetic writes to reports.
    gplus, rplus = (-m for m in _promote(-gplus, -rplus))
    (kplus,) = _promote(_times(kplus, 1 / step))
    return QuadFactorization(gplus, rplus, kplus, k, fact_res, rho_g, rho_r, (b0, hhat, step))


def _limit_factors(am1, a0, a1, hhat, scale, k, r_from_k=False):
    """G = -Hhat^{-1} A_{-1}, K = A_0 + A_1 G, R = -A_1 Hhat^{-1} (-A_1 K^{-1} with ``r_from_k``:
    as E_0 = -E_1 G, an R off K weighs ||G|| times) from a limit Hhat of prescaled blocks, and
    their factorization residual and R's equation residual (unbounded by that sum when
    ||R|| > 1).  A singular Hhat or K raises SingularPivot naming step ``k``."""
    try:
        g = -np.linalg.solve(hhat, am1)
        kk = a0 + a1 @ g
        r = -np.linalg.solve((kk if r_from_k else hhat).T, a1.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularPivot(f"singular pivot at cyclic reduction step {k}", step=k) from exc
    fact_res = _quad_fact_residual(*_residual_coeffs(am1, a0, a1, g, r, kk), scale)
    res_r = np.linalg.norm(r @ (r @ am1 + a0) + a1) / scale
    return g, r, kk, fact_res, res_r


def _limit_h0(f):
    """H_0 = step B_0^{-1} from the limits of ``f``, in their working dtype."""
    b0, _, step = f.limits
    return _times(np.linalg.inv(b0), step)


def inverse_coefficients(f, m):
    """Laurent coefficients H_{-m}..H_m of A(z)^{-1} from a factorization.

    H_0 is read off the limits, H_i = G+^{-i} H_0 for i < 0 and H_i = H_0 R+^i
    for i > 0; returns a list of 2m + 1 matrices indexed from -m to m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    (h0,) = _promote(_limit_h0(f))
    neg, pos = [h0], [h0]
    for _ in range(m):
        neg.append(f.gplus @ neg[-1])
        pos.append(pos[-1] @ f.rplus)
    return neg[:0:-1] + pos


def reversed_factorization(am1, a0, a1, f):
    """Canonical factorization of A(z^{-1}) from the limits of ``f``'s cyclic reduction.

    Cyclic reduction on A_1, A_0, A_{-1} is the same iteration with B_{-1} and B_1 swapped, so
    its Hhat is the dual accumulator Khat = B_0 + A_0 - Hhat: G- = -Khat^{-1} A_1, K- = A_0 +
    A_{-1} G- and R- = -A_{-1} K-^{-1} (from K-: a large ||G-|| near a singular H_0 amplifies
    the rounding of Khat, a difference), under :func:`cr_quadratic`'s residual gate.  W = H_0 =
    B_0^{-1}, with rcond(B_0) >= 1e-12.  Both gates raise SingularH0."""
    b0, hhat, _ = f.limits
    rc = rcond(b0)
    _check(SingularH0, "reversed_factorization.rcond", rc, 1e-12,
           "reciprocal condition of H_0 is {:.2e}", rc, op=">=")
    (am1, a0, a1), step, scale = _pow2_scaled(as_working(am1, a0, a1))
    gminus, rminus, kminus, fact_res, res_r = _limit_factors(
        a1, a0, am1, b0 + a0 - hhat, scale, f.iterations, r_from_k=True)
    _check(SingularH0, "reversed_factorization.residual", np.maximum(fact_res, res_r),
           RESIDUAL_TOL, "reversed factorization fails its residual checks "
           "(factorization residual {:.2e}, R- residual {:.2e})", fact_res, res_r)
    kminus, w = _times(kminus, 1 / step), _limit_h0(f)
    return ReversedFactorization(*_promote(gminus, rminus, kminus, w), fact_res)


# ---------------------------------------------------------------------------
# factorization updates under shifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CanonicalFactors:
    """General canonical factorization A(z) = U(z) L(z^{-1}) by coefficient lists."""

    ucoeffs: tuple
    lcoeffs: tuple

    def value(self, z):
        return horner(self.ucoeffs, z) @ horner(self.lcoeffs, 1.0 / z)


def _shift_l(lcoeffs, spec):
    """Right shift of L(1/z) = sum_i z^{-i} L_i, a Laurent polynomial with hi = 0.

    Only the negative-power half of the shift acts:
    L~_i = L_i - (lam-mu) sum_{j>=1} lam^{-j} L_{j+i-1} Q (finite for
    polynomials).  The shift's eigenpair gate is ||L(1/lam) u|| <= 1e-8.
    """
    l_inv = LaurentPoly(1 - len(lcoeffs), lcoeffs[::-1])
    return right_shift_laurent(l_inv, spec).coeffs[::-1]


def _shifted_factors(ucoeffs, lcoeffs, right_spec, left_spec=None):
    """Factors of A(z) = U(z) L(z^{-1}) after a right shift (on L) and an optional left
    shift (on U), checked against the shifted function on the unit circle; when the
    right shift moves, det L~ must also have no root in the closed unit disk.

    Each shift gates its own eigenpair: ||L(1/lambda1) u|| and ||v* U(lambda2)||.
    U and L pass the :class:`~mpshift.core.LaurentPoly` validator (read-only
    complex copies, square, of one size, finite) and must match in size.
    """
    ucoeffs, lcoeffs = _square_coeffs(ucoeffs), _square_coeffs(lcoeffs)
    if len(ucoeffs[0]) != len(lcoeffs[0]):
        raise DimensionMismatch(f"U has size {len(ucoeffs[0])} but L has size {len(lcoeffs[0])}")
    new_l = _shift_l(lcoeffs, right_spec)
    new_u, specs = ucoeffs, [right_spec]
    if left_spec is not None:
        new_u = left_shift_poly(MatrixPoly(ucoeffs), left_spec).coeffs
        specs.append(left_spec)
    factors = CanonicalFactors(new_u, new_l)
    _check_shifted_product(ucoeffs, lcoeffs, factors, specs)
    if right_spec.mu != right_spec.lam:
        _check_l_outside_disk(factors.lcoeffs)
    return factors


def _inside_disk_spec(lam, mu, u, v):
    """The spec of a right factor update: lambda != 0, and |lambda|, |mu| < 1."""
    lam, mu = complex(lam), complex(mu)
    if lam == 0:
        raise ZeroLambda("lambda = 0 is outside the annulus of the factorization")
    if abs(lam) >= 1 or abs(mu) >= 1:
        raise ShiftOutsideDisk(f"|lambda|={abs(lam):.4f}, |mu|={abs(mu):.4f} must be < 1")
    return ShiftSpec(lam, mu, u, v)


def shifted_factorization_right(ucoeffs, lcoeffs, lam, mu, u, v=None):
    """Update a canonical factorization under a right shift inside the unit disk.

    Given A(z) = U(z) L(z^{-1}) and an eigenpair A(lam) u = 0 with
    |lam| < 1, |mu| < 1 (so L(1/lam) u = 0), the shifted function keeps U
    and replaces L by
    L~_0 = L_0, L~_i = L_i - (lam-mu) sum_{j>=1} lam^{-j} L_{j+i-1} Q.
    The updated factors are verified against the shifted function at 8
    unit-circle points, and det L~ is checked to have no roots in the closed
    unit disk (all eigenvalues of the L~ polynomial beyond radius one).
    """
    return _shifted_factors(ucoeffs, lcoeffs, _inside_disk_spec(lam, mu, u, v))


def _check_shifted_product(ucoeffs, lcoeffs, factors, specs):
    """Compare U~(z) L~(1/z) with U(z) L(1/z) shifted by each spec at the 8th roots of unity
    (one stack), relative to sum ||U_i|| * sum ||L_i|| (U and L prescaled apart, so s U, L / s
    reads the same).  Each spec multiplies by I + (lam-mu)/(z-lam) Q on its side."""
    eye = np.eye(len(ucoeffs[0]), dtype=complex)
    ucoeffs, u_step, u_scale = _pow2_scaled(ucoeffs)
    lcoeffs, l_step, l_scale = _pow2_scaled(lcoeffs)
    shifted = CanonicalFactors([_times(c, u_step) for c in factors.ucoeffs],
                               [_times(c, l_step) for c in factors.lcoeffs])
    z = np.exp(2j * np.pi * np.arange(8) / 8)[:, None, None]
    ref = horner(ucoeffs, z) @ horner(lcoeffs, 1.0 / z)
    for spec in specs:
        factor = eye + (spec.lam - spec.mu) / (z - spec.lam) * spec.q
        ref = ref @ factor if spec.side == "right" else factor @ ref
    worst = np.linalg.norm(shifted.value(z) - ref, axis=(1, 2)).max() / (u_scale * l_scale)
    _check(NoConvergence, "shifted_factors.product", worst, RESIDUAL_TOL,
           "updated factors disagree with the shifted function: {:.2e}", worst)


def _check_l_outside_disk(lcoeffs):
    lpoly = MatrixPoly(lcoeffs)
    if lpoly.d == 0:
        return
    root = min((abs(q.value) for q in polyeig(lpoly).finite()), default=math.inf)
    _check(NoConvergence, "shifted_factors.l_roots", root, 1.0 + RADIUS_MARGIN,
           "det L~ has a root of modulus {:.6f} inside the closed unit disk", root, op=">")


def shifted_factorization_both(am1, a0, a1, f, rf, lam, mu, u, v=None):
    """Update both canonical factorizations of a quadratic under a right shift.

    Keeps R+ and K+, sets G~+ = G+ + (mu-lam) Q, and updates W = H_0 to
    W~ = W + (mu-lam) Q W (I - mu R+)^{-1} R+.  (The resolvent factor is exact
    for every |mu| < 1 and collapses to W + (mu-lam) Q W R+ in the common
    mu = 0 case; see the telescoping of (G+ + (mu-lam)Q)^i, whose powers
    contract with ratio mu on the shifted eigendirection.)  Requires |lam| < 1,
    |mu| < 1, v* u = 1, and the non-degeneracy condition
    (lam-mu) v* (I - mu G-)^{-1} G- u != 1 (checked with margin 1e-10).

    The + side's factorization residual is gated at 1e-10.  W~ and K+ fill
    the shifted limits B_0 = W~^{-1} and Hhat = K+, and the reversed factors
    are :func:`reversed_factorization` of them, under its gates: a singular
    or non-finite W~ raises SingularH0.

    The shifted coefficients, and the eigenpair gate, are those of
    :func:`~mpshift.shifts.right_shift_laurent`.  Returns the pair
    (QuadFactorization, ReversedFactorization) for the shifted Laurent
    polynomial.
    """
    spec = _inside_disk_spec(lam, mu, u, v)
    lam, mu = spec.lam, spec.mu
    shifted = right_shift_laurent(LaurentPoly(-1, (am1, a0, a1)), spec)
    if mu == lam:
        return f, rf

    eye = np.eye(shifted.n, dtype=complex)
    resolvent_g = np.linalg.solve(eye - mu * rf.gminus, rf.gminus @ spec.vector)
    cond_val = (lam - mu) * (spec.dual.conj() @ resolvent_g)
    _check(DegenerateShift, "shifted_factorization_both.degenerate", abs(cond_val - 1.0), 1e-10,
           "(lam-mu) v* (I - mu G-)^-1 G- u = {:.6e} is too close to 1", cond_val, op=">=")

    q = spec.q
    gplus_t = f.gplus + (mu - lam) * q
    w_t = rf.w + (mu - lam) * q @ rf.w @ np.linalg.solve(eye - mu * f.rplus, f.rplus)
    fact_res = _factor_residual(*shifted.coeffs, gplus_t, f.rplus, f.kplus)
    _check(NoConvergence, "shifted_factorization_both.residual", fact_res, RESIDUAL_TOL,
           "shifted factorization residual {:.2e} exceeds 1e-10", fact_res)
    # A~'s limits B_0 = step W~^{-1} (W~ prescaled apart), Hhat = step K+; NaN B_0 fails rcond
    _, step, _ = _pow2_scaled(shifted.coeffs)
    b0 = np.full_like(w_t, math.nan)
    if np.isfinite(w_t).all():
        (w_t,), w_step, _ = _pow2_scaled([w_t])
        with contextlib.suppress(np.linalg.LinAlgError):
            b0 = _times(np.linalg.inv(w_t), step * w_step)
    quad = QuadFactorization(gplus_t, f.rplus, f.kplus, f.iterations, fact_res,
                             spectral_radius(gplus_t), f.rho_r, (b0, _times(f.kplus, step), step))
    return quad, reversed_factorization(*shifted.coeffs, quad)


def double_shift_factorization(ucoeffs, lcoeffs, right_spec, left_spec):
    """Update a canonical factorization under a double shift.

    The right pair (lam1 -> mu1, |.| < 1) updates L as in
    :func:`shifted_factorization_right`; the left pair (lam2 -> mu2,
    |.| > 1) updates U by U~_i = U_i + (lam2-mu2) sum_{j>=0} lam2^j S U_{i+j+1}.
    Both sums are finite for polynomial factors, so degrees are preserved.
    The specs' sides must be "right" and "left", in that order.  As there, det L~
    must have no root in the closed unit disk.
    """
    _check_sides((right_spec, left_spec), ("right", "left"))
    l1, m1, l2, m2 = right_spec.lam, right_spec.mu, left_spec.lam, left_spec.mu
    if abs(l1) >= 1 or abs(m1) >= 1:
        raise ModulusConstraintViolated(
            f"right pair must lie inside the unit circle (|lam1|={abs(l1):.4f}, |mu1|={abs(m1):.4f})"
        )
    if abs(l2) <= 1 or abs(m2) <= 1:
        raise ModulusConstraintViolated(
            f"left pair must lie outside the unit circle (|lam2|={abs(l2):.4f}, |mu2|={abs(m2):.4f})"
        )
    if l1 == 0:
        raise ZeroLambda("lambda1 = 0 is outside the annulus of the factorization")
    return _shifted_factors(ucoeffs, lcoeffs, right_spec, left_spec)


def poly_factorization(p, g):
    """Divide A(z) by (z I - g) for a minimal solvent g: A(z) = U(z) (z I - g).

    The quotient follows the backward recurrence U_{d-1} = A_d,
    U_{i-1} = A_i + U_i g, on prescaled coefficients, and the U_i are
    multiplied back.  A(z) - U(z) (z I - g) then has the coefficients
    A_d - U_{d-1} = 0, A_i - U_{i-1} + U_i g = 0 and A_0 + U_0 g, the Horner
    sum of the equation residual, which is the one gate on the quotient.
    """
    if p.lo != 0:
        raise DimensionMismatch("poly_factorization expects a matrix polynomial")
    g = np.asarray(g, dtype=complex)
    if g.shape != (p.n, p.n):
        raise DimensionMismatch(f"solvent must be {p.n}x{p.n}")
    rho = spectral_radius(g)
    _check(NotASolvent, "poly_factorization.radius", rho, 1.0 - RADIUS_MARGIN,
           "rho(g) = {:.8f} is not below one", rho, op="<")
    res = equation_residual(p, g)
    _check(NotASolvent, "poly_factorization.residual", res, RESIDUAL_TOL,
           "relative ||sum A_i g^i|| = {:.2e} exceeds 1e-10", res)
    coeffs, step, _ = _pow2_scaled(p.coeffs)
    ucoeffs = np.empty((p.d, p.n, p.n), dtype=complex)
    ucoeffs[p.d - 1] = coeffs[p.d]
    for i in range(p.d - 1, 0, -1):
        ucoeffs[i - 1] = coeffs[i] + ucoeffs[i] @ g
    return PolyFactorization(g, tuple(_times(c, 1 / step) for c in ucoeffs))


__all__ = [
    "CanonicalFactors",
    "PolyFactorization",
    "QuadFactorization",
    "ReversedFactorization",
    "cr_quadratic",
    "double_shift_factorization",
    "inverse_coefficients",
    "poly_factorization",
    "reversed_factorization",
    "shifted_factorization_right",
    "shifted_factorization_both",
]
