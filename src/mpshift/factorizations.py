"""Canonical (Wiener-Hopf) factorizations of quadratic matrix Laurent polynomials
and matrix polynomials, and their closed-form updates under eigenvalue shifts.

For A(z) = z^{-1} A_{-1} + A_0 + z A_1 with no eigenvalues on the unit
circle, the canonical factorization A(z) = (I - z R+) K+ (I - z^{-1} G+)
exists with spectral radii of G+ and R+ below one; G+ and R+ are the
minimal solvents of the two one-sided quadratic matrix equations.  They are
computed here by cyclic reduction, whose error decays like sigma^(2^k).
The inverse A(z)^{-1} has Laurent coefficients expressible through G+, K+,
R+; when its central coefficient H_0 is nonsingular, A(z^{-1}) factors as
well and the factors follow by similarity with H_0.

Shifting an eigenvalue lambda (|lambda| < 1) of A(z) to mu (|mu| < 1) keeps
R+ and K+ and replaces G+ by G+ + (mu - lambda) u v*; the double-sided
update additionally transforms H_0 in closed form.  These updates are what
make shift-accelerated equation solving cheap: no factorization has to be
recomputed from scratch.

Cyclic reduction, the H_0 series and the reversed factorization compute in
real arithmetic when their inputs have no imaginary part (QBD blocks are
real); every factor they return is complex128 either way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FLOOR,
    LaurentPoly,
    MatrixPoly,
    as_working,
    equation_residual,
    evaluate,
    horner,
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
    SingularWtilde,
    ZeroLambda,
)
from .shifts import ShiftSpec, left_shift_poly, right_shift_laurent
from .spectra import spectral_radius

UNIT_CIRCLE = tuple(cmath.exp(2j * math.pi * k / 8) for k in range(8))
RADIUS_MARGIN = 1e-8
H0_MAXSTEPS = 64  # doubling steps: the first 2^64 terms of the H_0 series


@dataclass(frozen=True, eq=False)
class QuadFactorization:
    """Factors of A(z) = (I - z rplus) kplus (I - z^{-1} gplus)."""

    gplus: np.ndarray
    rplus: np.ndarray
    kplus: np.ndarray
    iterations: int
    residual: float
    rho_g: float
    rho_r: float


@dataclass(frozen=True, eq=False)
class ReversedFactorization:
    """Factors of A(z^{-1}) = (I - z rminus) kminus (I - z^{-1} gminus); w is H_0."""

    gminus: np.ndarray
    rminus: np.ndarray
    kminus: np.ndarray
    w: np.ndarray
    residual: float
    rho_g: float
    rho_r: float


@dataclass(frozen=True, eq=False)
class PolyFactorization:
    """Factors of A(z) = U(z) (z I - g) with rho(g) < 1 (minimal solvent g)."""

    g: np.ndarray
    ucoeffs: tuple


def _promote(*arrays):
    """Working-dtype results as the complex128 arrays every public result holds."""
    return tuple(np.asarray(a, dtype=complex) for a in arrays)


def _quad_value(am1, a0, a1, z):
    return am1 / z + a0 + z * a1


def _quad_fact_residual(am1, a0, a1, g, r, k):
    """Max relative factorization residual over 8 unit-circle points."""
    eye = np.eye(a0.shape[0], dtype=complex)
    scale = max(
        np.linalg.norm(am1) + np.linalg.norm(a0) + np.linalg.norm(a1), FLOOR
    )
    worst = 0.0
    for z in UNIT_CIRCLE:
        lhs = _quad_value(am1, a0, a1, z)
        rhs = (eye - z * r) @ k @ (eye - g / z)
        worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    return worst


def cr_quadratic(am1, a0, a1, tol=1e-14, maxit=64, strict_radius=True):
    """Canonical factorization of z^{-1}A_{-1} + A_0 + z A_1 by cyclic reduction.

    Iterates the standard quadratically convergent recurrences
        B_{-1} <- -B_{-1} S B_{-1},  B_1 <- -B_1 S B_1,
        B_0 <- B_0 - B_{-1} S B_1 - B_1 S B_{-1},
        Hhat <- Hhat - B_1 S B_{-1},
    with S = B_0^{-1}, stopping when min(||B_{-1}||_inf, ||B_1||_inf) drops
    below tol times the input scale.  The limit of the Hhat sequence is the
    middle factor K+ itself, and both solvents come from it:
    G+ = -Hhat^{-1} A_{-1} and R+ = -A_1 Hhat^{-1}.  Residuals of both
    one-sided quadratic equations and of the factorization itself are
    verified to 1e-10 relative.

    With ``strict_radius`` the spectral radii of G+ and R+ must be below one
    with margin 1e-8 (a genuine canonical factorization); pass False when
    eigenvalues may sit on the unit circle and only the minimal solvent is
    wanted (convergence is then linear instead of quadratic).
    """
    am1, a0, a1 = as_working(am1, a0, a1)
    if not (am1.shape == a0.shape == a1.shape) or a0.shape[0] != a0.shape[1]:
        raise DimensionMismatch("coefficients must be square and equally sized")

    def inorm(x):
        return np.linalg.norm(x, np.inf)

    n = a0.shape[0]
    denom = max(inorm(am1) + inorm(a0) + inorm(a1), FLOOR)
    scale = max(np.linalg.norm(am1) + np.linalg.norm(a0) + np.linalg.norm(a1), FLOOR)

    bm1, b0, b1 = am1.copy(), a0.copy(), a1.copy()
    hhat = a0.copy()
    k = 0
    while min(inorm(bm1), inorm(b1)) > tol * denom:
        if k >= maxit:
            raise NoConvergence(
                f"cyclic reduction did not converge in {maxit} iterations "
                "(eigenvalues on the unit circle without a gap?)"
            )
        try:
            xy = np.linalg.solve(b0, np.hstack((bm1, b1)))
        except np.linalg.LinAlgError as exc:
            raise SingularPivot(k) from exc
        x, y = xy[:, :n], xy[:, n:]
        bm1_next = -bm1 @ x
        b1_next = -b1 @ y
        b0 = b0 - bm1 @ y - b1 @ x
        hhat = hhat - b1 @ x
        bm1, b1 = bm1_next, b1_next
        k += 1

    try:
        gplus = -np.linalg.solve(hhat, am1)
        rplus = -np.linalg.solve(hhat.T, a1.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularPivot(k) from exc
    kplus = a0 + a1 @ gplus

    res_g = np.linalg.norm(am1 + a0 @ gplus + a1 @ gplus @ gplus) / scale
    res_r = np.linalg.norm(rplus @ rplus @ am1 + rplus @ a0 + a1) / scale
    res_k = np.linalg.norm(a0 - (kplus + rplus @ kplus @ gplus)) / scale
    if max(res_g, res_r, res_k) > 1e-10:
        raise NoConvergence(
            f"cyclic reduction limit fails its residual checks "
            f"(G: {res_g:.2e}, R: {res_r:.2e}, K: {res_k:.2e})"
        )
    rho_g = spectral_radius(gplus)
    rho_r = spectral_radius(rplus)
    if strict_radius and max(rho_g, rho_r) >= 1.0 - RADIUS_MARGIN:
        raise NoConvergence(
            f"computed factors are not contractive (rho(G+)={rho_g:.6f}, "
            f"rho(R+)={rho_r:.6f}); no canonical factorization"
        )
    fact_res = _quad_fact_residual(am1, a0, a1, gplus, rplus, kplus)
    if fact_res > 1e-10:
        raise NoConvergence(f"factorization residual {fact_res:.2e} exceeds 1e-10")
    # G+ and R+ are minus a solve: promoting before the negation gives real
    # data the -0.0 imaginary parts that complex arithmetic writes to reports.
    gplus, rplus = (-m for m in _promote(-gplus, -rplus))
    (kplus,) = _promote(kplus)
    return QuadFactorization(gplus, rplus, kplus, k, fact_res, rho_g, rho_r)


def _h0(f):
    """H_0 = sum_j G+^j K+^{-1} R+^j by Smith doubling, in the working dtype.

    After k steps h holds the first 2^k terms: h <- h + G h R adds the next
    2^k, then G <- G^2 and R <- R^2.  It stops once the added block is below
    1e-16 of the sum; a series still growing after H0_MAXSTEPS steps, or one
    that overflowed, raises NoConvergence.
    """
    g, k, r = as_working(f.gplus, f.kplus, f.rplus)
    h = np.linalg.inv(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(H0_MAXSTEPS):
            term = g @ h @ r
            h = h + term
            total = np.linalg.norm(h)
            if not math.isfinite(total):
                break
            if np.linalg.norm(term) <= 1e-16 * max(total, FLOOR):
                return h
            g = g @ g
            r = r @ r
    raise NoConvergence("H_0 series did not reach its tail tolerance")


def inverse_coefficients(f, m):
    """Laurent coefficients H_{-m}..H_m of A(z)^{-1} from a factorization.

    H_i = G+^{-i} H_0 for i < 0 and H_i = H_0 R+^i for i > 0; returns a list
    of 2m + 1 matrices indexed from -m to m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    (h0,) = _promote(_h0(f))
    neg = []
    cur = h0
    for _ in range(m):
        cur = f.gplus @ cur
        neg.append(cur)
    pos = []
    cur = h0
    for _ in range(m):
        cur = cur @ f.rplus
        pos.append(cur)
    return list(reversed(neg)) + [h0] + pos


def _similar_factors(am1, a0, a1, gplus, rplus, h, error, h_name):
    """Factors of A(z^{-1}) by similarity with H (H_0, or W~ after a shift).

    G- = H R+ H^{-1}, R- = H^{-1} G+ H, and K- = A_0 + A_{-1} G-
    (= A_0 + R- A_1; both expressions are computed and must agree).  Raises
    ``error`` when H, named ``h_name`` in the message, is numerically
    singular or the two K- disagree; the caller gates the returned 8-point
    residual.
    """
    rcond = 1.0 / np.linalg.cond(h)
    if rcond < 1e-12:
        raise error(f"reciprocal condition of {h_name} is {rcond:.2e}")
    gminus = np.linalg.solve(h.T, (h @ rplus).T).T
    rminus = np.linalg.solve(h, gplus @ h)
    k_a = a0 + am1 @ gminus
    k_b = a0 + rminus @ a1
    scale = max(np.linalg.norm(am1) + np.linalg.norm(a0) + np.linalg.norm(a1), FLOOR)
    if np.linalg.norm(k_a - k_b) > 1e-10 * scale:
        raise error(f"the two K- expressions disagree by {np.linalg.norm(k_a - k_b):.2e}")
    fact_res = _quad_fact_residual(a1, a0, am1, gminus, rminus, k_a)
    rho_g, rho_r = spectral_radius(gminus), spectral_radius(rminus)
    return ReversedFactorization(*_promote(gminus, rminus, k_a, h), fact_res, rho_g, rho_r)


def reversed_factorization(am1, a0, a1, f):
    """Canonical factorization of A(z^{-1}) when H_0 is nonsingular.

    G- = H_0 R+ H_0^{-1}, R- = H_0^{-1} G+ H_0, and K- = A_0 + A_{-1} G-
    (= A_0 + R- A_1; both expressions are computed and must agree).
    """
    am1, a0, a1, gplus, rplus = as_working(am1, a0, a1, f.gplus, f.rplus)
    rf = _similar_factors(am1, a0, a1, gplus, rplus, _h0(f), SingularH0, "H_0")
    if rf.residual > 1e-10:
        raise SingularH0(f"reversed factorization residual {rf.residual:.2e} exceeds 1e-10")
    return rf


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


def _coeff_tuple(coeffs):
    out = tuple(np.asarray(c, dtype=complex) for c in coeffs)
    n = out[0].shape[0]
    for c in out:
        if c.shape != (n, n):
            raise DimensionMismatch("factor coefficients must be square and equal size")
    return out


def _shift_l(lcoeffs, spec):
    """Right shift of L(1/z) = sum_i z^{-i} L_i, a Laurent polynomial with hi = 0.

    Only the negative-power half of the shift acts:
    L~_i = L_i - (lam-mu) sum_{j>=1} lam^{-j} L_{j+i-1} Q (finite for
    polynomials).  The shift's eigenpair gate is ||L(1/lam) u|| <= 1e-8.
    """
    l_inv = LaurentPoly(1 - len(lcoeffs), lcoeffs[::-1])
    return right_shift_laurent(l_inv, spec).coeffs[::-1]


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
    lam = complex(lam)
    mu = complex(mu)
    if lam == 0:
        raise ZeroLambda("lambda = 0 is outside the annulus of the factorization")
    if abs(lam) >= 1 or abs(mu) >= 1:
        raise ShiftOutsideDisk(f"|lambda|={abs(lam):.4f}, |mu|={abs(mu):.4f} must be < 1")
    ucoeffs = _coeff_tuple(ucoeffs)
    lcoeffs = _coeff_tuple(lcoeffs)
    spec = ShiftSpec(lam, mu, u, v)
    factors = CanonicalFactors(ucoeffs, _shift_l(lcoeffs, spec))
    if mu == lam:
        return factors
    _check_shifted_product(
        ucoeffs, lcoeffs, factors, [(lam, mu, spec.vector, spec.dual, "right")]
    )
    _check_l_outside_disk(factors.lcoeffs)
    return factors


def _check_shifted_product(ucoeffs, lcoeffs, factors, shifts_applied):
    """Compare U~(z) L~(1/z) with the shifted function pointwise on the unit circle."""
    n = ucoeffs[0].shape[0]
    eye = np.eye(n, dtype=complex)
    scale = max(
        sum(np.linalg.norm(c) for c in ucoeffs)
        + sum(np.linalg.norm(c) for c in lcoeffs),
        FLOOR,
    )
    worst = 0.0
    for z in UNIT_CIRCLE:
        ref = horner(ucoeffs, z) @ horner(lcoeffs, 1.0 / z)
        for lam, mu, vec, dual, side in shifts_applied:
            if side == "right":
                ref = ref @ (eye + (lam - mu) / (z - lam) * np.outer(vec, dual.conj()))
            else:
                ref = (eye + (lam - mu) / (z - lam) * np.outer(dual, vec.conj())) @ ref
        worst = max(worst, np.linalg.norm(factors.value(z) - ref) / scale)
    if worst > 1e-10:
        raise NoConvergence(f"updated factors disagree with the shifted function: {worst:.2e}")


def _check_l_outside_disk(lcoeffs):
    from .spectra import polyeig

    lpoly = MatrixPoly(lcoeffs)
    if lpoly.d == 0:
        return
    spec = polyeig(lpoly)
    finite = [abs(q.value) for q in spec.finite()]
    if finite and min(finite) <= 1.0 + RADIUS_MARGIN:
        raise NoConvergence(
            f"det L~ has a root of modulus {min(finite):.6f} inside the closed unit disk"
        )


def shifted_factorization_both(am1, a0, a1, f, rf, lam, mu, u, v=None):
    """Update both canonical factorizations of a quadratic under a right shift.

    Keeps R+ and K+, sets G~+ = G+ + (mu-lam) Q, and updates the reversed
    factors by similarity with W~ = W + (mu-lam) Q W (I - mu R+)^{-1} R+,
    where W = H_0.  (The resolvent factor is exact for every |mu| < 1 and
    collapses to W + (mu-lam) Q W R+ in the common mu = 0 case; see the
    telescoping of (G+ + (mu-lam)Q)^i, whose powers contract with ratio mu
    on the shifted eigendirection.)  Requires |lam| < 1, |mu| < 1, v* u = 1,
    and the non-degeneracy condition
    (lam-mu) v* (I - mu G-)^{-1} G- u != 1 (checked with margin 1e-10).

    The shifted coefficients, and the eigenpair gate, are those of
    :func:`~mpshift.shifts.right_shift_laurent`.  Returns the pair
    (QuadFactorization, ReversedFactorization) for the shifted Laurent
    polynomial.
    """
    lam = complex(lam)
    mu = complex(mu)
    if lam == 0:
        raise ZeroLambda("lambda = 0 is outside the annulus of the factorization")
    if abs(lam) >= 1 or abs(mu) >= 1:
        raise ShiftOutsideDisk(f"|lambda|={abs(lam):.4f}, |mu|={abs(mu):.4f} must be < 1")
    spec = ShiftSpec(lam, mu, u, v)
    shifted = right_shift_laurent(LaurentPoly(-1, (am1, a0, a1)), spec)
    if mu == lam:
        return f, rf
    am1_t, a0_t, a1_t = shifted.coeffs

    eye = np.eye(shifted.n, dtype=complex)
    resolvent_g = np.linalg.solve(eye - mu * rf.gminus, rf.gminus @ spec.vector)
    cond_val = (lam - mu) * (spec.dual.conj() @ resolvent_g)
    if abs(cond_val - 1.0) < 1e-10:
        raise DegenerateShift(
            f"(lam-mu) v* (I - mu G-)^-1 G- u = {cond_val:.6e} is too close to 1"
        )

    q = spec.q
    gplus_t = f.gplus + (mu - lam) * q
    w_t = rf.w + (mu - lam) * q @ rf.w @ np.linalg.solve(eye - mu * f.rplus, f.rplus)
    rev = _similar_factors(am1_t, a0_t, a1_t, gplus_t, f.rplus, w_t, SingularWtilde, "W~")
    fact_res = _quad_fact_residual(am1_t, a0_t, a1_t, gplus_t, f.rplus, f.kplus)
    if max(fact_res, rev.residual) > 1e-10:
        raise NoConvergence(
            f"shifted factorization residuals {fact_res:.2e}/{rev.residual:.2e} exceed 1e-10"
        )
    quad = QuadFactorization(
        gplus_t, f.rplus, f.kplus, f.iterations, fact_res, spectral_radius(gplus_t), f.rho_r
    )
    return quad, rev


def double_shift_factorization(ucoeffs, lcoeffs, right_spec, left_spec):
    """Update a canonical factorization under a double shift.

    The right pair (lam1 -> mu1, |.| < 1) updates L as in
    :func:`shifted_factorization_right`; the left pair (lam2 -> mu2,
    |.| > 1) updates U by U~_i = U_i + (lam2-mu2) sum_{j>=0} lam2^j S U_{i+j+1}.
    Both sums are finite for polynomial factors, so degrees are preserved.
    """
    ucoeffs = _coeff_tuple(ucoeffs)
    lcoeffs = _coeff_tuple(lcoeffs)
    l1, m1 = complex(right_spec.lam), complex(right_spec.mu)
    l2, m2 = complex(left_spec.lam), complex(left_spec.mu)
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
    # each shift gates its own eigenpair: ||L(1/lambda1) u|| and ||v* U(lambda2)||
    new_l = _shift_l(lcoeffs, right_spec)
    new_u = left_shift_poly(MatrixPoly(ucoeffs), left_spec).coeffs
    factors = CanonicalFactors(new_u, new_l)
    applied = []
    if m1 != l1:
        applied.append((l1, m1, right_spec.vector, right_spec.dual, "right"))
    if m2 != l2:
        applied.append((l2, m2, left_spec.vector, left_spec.dual, "left"))
    _check_shifted_product(ucoeffs, lcoeffs, factors, applied)
    return factors


def poly_factorization(p, g):
    """Divide A(z) by (z I - g) for a minimal solvent g: A(z) = U(z) (z I - g).

    The quotient follows the backward recurrence U_{d-1} = A_d,
    U_{i-1} = A_i + U_i g, with the consistency condition A_0 + U_0 g = 0.
    """
    if p.lo != 0:
        raise DimensionMismatch("poly_factorization expects a matrix polynomial")
    g = np.asarray(g, dtype=complex)
    if g.shape != (p.n, p.n):
        raise DimensionMismatch(f"solvent must be {p.n}x{p.n}")
    rho = spectral_radius(g)
    if rho >= 1.0 - RADIUS_MARGIN:
        raise NotASolvent(f"rho(g) = {rho:.8f} is not below one")
    res = equation_residual(p, g)
    if res > 1e-10:
        raise NotASolvent(f"relative ||sum A_i g^i|| = {res:.2e} exceeds 1e-10")
    scale = max(sum(np.linalg.norm(c) for c in p.coeffs), FLOOR)
    ucoeffs = [None] * p.d
    ucoeffs[p.d - 1] = np.array(p.coeffs[p.d], dtype=complex)
    for i in range(p.d - 1, 0, -1):
        ucoeffs[i - 1] = p.coeffs[i] + ucoeffs[i] @ g
    consistency = np.linalg.norm(p.coeffs[0] + ucoeffs[0] @ g)
    if consistency > 1e-8 * scale:
        raise NotASolvent(f"division consistency ||A_0 + U_0 g|| = {consistency:.2e}")
    # sample-point reconstruction check
    worst = 0.0
    eye = np.eye(p.n, dtype=complex)
    for z in UNIT_CIRCLE:
        rhs = horner(ucoeffs, z) @ (z * eye - g)
        worst = max(worst, np.linalg.norm(evaluate(p, z) - rhs) / scale)
    if worst > 1e-10:
        raise NotASolvent(f"reconstruction residual {worst:.2e} exceeds 1e-10")
    return PolyFactorization(g, tuple(ucoeffs))


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
