"""Eigenvalues, eigenvectors, and invariant-pair residuals of matrix polynomials.

The polynomial eigenvalue problem det A(z) = 0 is solved through the
Frobenius companion linearization C1 - z C2 combined with a Cayley-type
spectral transform: for a random point c off the spectrum, the matrix
M = (C1 - c C2)^{-1} C2 has eigenvalues theta = 1/(z - c), so a standard
dense eigensolver recovers every z, with theta = 0 corresponding to
eigenvalues at infinity (singular leading coefficient).  Eigenvectors are
recomputed from the SVD of the in-disk function (:func:`core._in_disk`),
decoupling their accuracy from the conditioning of the linearization.

The Cayley point c is redrawn on |c| = 0.9 until rcond(A(c)) = sigma_min /
sigma_max exceeds RANK_TOL = 1e-13, a test invariant to scale and dimension;
after 10 failed draws det A(z) vanishes identically (DegeneratePolynomial).

A multishift packet (U, Lambda), e.g. of :func:`polyeig` columns, is a
:class:`~mpshift.shifts.MultiShiftSpec`, gated on :func:`invariant_pair_residual`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FLOOR,
    RANK_TOL,
    EigenPair,
    _check,
    _in_disk,
    _pow2_scaled,
    horner,
    is_infinite,
    matrix_horner,
    pair_residual,
    rcond,
    unit_vector,
)
from .errors import (
    DegeneratePolynomial,
    DimensionMismatch,
    EigensolverFailure,
    SingularLambda,
)

# |theta| below HARD_INF_TOL * ||M||_F is an eigenvalue at infinity; values in
# the borderline band up to SOFT_INF_TOL * ||M||_F count as infinite only when
# the leading coefficient is itself numerically singular (a defective infinite
# eigenvalue splits like sqrt(machine eps) under a dense eigensolver).
HARD_INF_TOL = 1e-10
SOFT_INF_TOL = 1e-6
REFINE_STEPS = 4  # Newton steps of refine_pair


def spectral_radius(a):
    """Largest eigenvalue modulus, by the dense eigensolver (real one for real a)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


@dataclass(frozen=True, eq=False)
class CompanionPencil:
    """Block companion pencil C1 - z C2 with det(C1 - z C2) = +/- det A(z)."""

    c1: np.ndarray
    c2: np.ndarray


def companion_pencil(p):
    """Frobenius companion linearization of a degree >= 1 matrix polynomial."""
    n, d = p.n, p.d
    if d < 1:
        raise DimensionMismatch("companion pencil needs degree >= 1")
    nd = n * d
    c1 = np.zeros((nd, nd), dtype=complex)
    c2 = np.zeros((nd, nd), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for i in range(d - 1):
        c1[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = eye
        c2[i * n : (i + 1) * n, i * n : (i + 1) * n] = eye
    for j in range(d):
        c1[(d - 1) * n :, j * n : (j + 1) * n] = -p.coeffs[j]
    c2[(d - 1) * n :, (d - 1) * n :] = p.coeffs[d]
    return CompanionPencil(c1, c2)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """All n*d eigenpairs, sorted by modulus ascending with infinity last."""

    pairs: tuple
    cayley_point: complex

    def values(self):
        return np.array([p.value for p in self.pairs], dtype=complex)

    def finite(self):
        return [p for p in self.pairs if not p.is_infinite]


def null_vectors(p, z, left=False):
    """Unit right (and, with ``left``, left) singular vectors of the smallest
    singular value of the in-disk function at z (:func:`core._in_disk`).

    Returns ``(u, y)`` with ``A(z) u ~ 0`` and ``y* A(z) ~ 0``; ``y`` is None
    unless ``left``.
    """
    w, coeffs = _in_disk(p, z)
    lu, _, vh = np.linalg.svd(horner(coeffs, w))
    return unit_vector(vh[-1].conj()), unit_vector(lu[:, -1]) if left else None


def polyeig(p, seed=0, want_left=False):
    """All eigenvalues and eigenvectors of a matrix polynomial.

    Parameters
    ----------
    p : LaurentPoly with lo = 0
        Square matrix polynomial with det A(z) not identically zero.
    seed : int
        Seed for the random Cayley point; the computed spectrum is invariant
        under it up to roundoff.
    want_left : bool
        Also compute left eigenvectors (from the SVD of A(z)).

    Returns
    -------
    Spectrum
        n*d eigenpairs including eigenvalues at infinity when the leading
        coefficient is singular.
    """
    if p.lo != 0:
        raise DimensionMismatch("polyeig expects a matrix polynomial")
    rng = np.random.default_rng(seed)
    pencil = companion_pencil(p) if p.d else None
    rconds = []
    for _ in range(10):
        c = 0.9 * cmath.exp(2j * math.pi * rng.random())
        w, coeffs = _in_disk(p, c)
        rconds.append(rcond(horner(coeffs, w)))
        if not rconds[-1] > RANK_TOL:
            continue
        if pencil is None:
            return Spectrum((), 0.0 + 0.0j)
        try:
            m = np.linalg.solve(pencil.c1 - c * pencil.c2, pencil.c2)
        except np.linalg.LinAlgError:
            continue
        break
    else:
        _check(DegeneratePolynomial, "polyeig.rank", float(np.fmax.reduce(rconds)), RANK_TOL,
               "det A(z) vanishes at all probe points", op=">")
        raise EigensolverFailure("no usable Cayley point after 10 attempts")

    try:
        thetas = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"dense eigensolver failed: {exc}") from exc

    m_scale = np.linalg.norm(m)
    lead_singular = None  # computed lazily for borderline thetas
    pairs = []
    for theta in thetas:
        at = abs(theta)
        infinite = at <= HARD_INF_TOL * m_scale
        borderline = False
        if not infinite and at <= SOFT_INF_TOL * m_scale:
            if lead_singular is None:
                (lead,), _, lead_scale = _pow2_scaled([p.coeffs[-1]])
                lead_singular = np.linalg.svd(lead, compute_uv=False)[-1] <= 1e-8 * lead_scale
            if lead_singular:
                infinite = True
                borderline = True
        z = complex(math.inf, 0.0) if infinite else c + 1.0 / theta
        u, left = null_vectors(p, z, want_left)
        pairs.append(EigenPair(z, u, left, pair_residual(p, z, u), borderline))

    pairs.sort(key=lambda q: (q.is_infinite, abs(q.value), q.value.real, q.value.imag))
    return Spectrum(tuple(pairs), complex(c))


def refine_pair(p, lam, u):
    """Polish a finite eigenpair by SVD vector extraction and REFINE_STEPS Newton steps.

    Newton runs in w on the in-disk frame (:func:`core._in_disk`), its slope by
    Horner over k C_k.  Returns an :class:`EigenPair` with a residual no larger
    than the input's; the input is returned unchanged when nothing improves it.
    """
    lam = complex(lam)
    if is_infinite(lam):
        raise DimensionMismatch("refine_pair handles finite eigenvalues only")
    u0 = np.asarray(u, dtype=complex).reshape(-1)
    best = (lam, u0, pair_residual(p, lam, u0))

    cur = lam
    for _ in range(REFINE_STEPS if p.d else 0):  # a constant A has no slope
        w, coeffs = _in_disk(p, cur)
        m = horner(coeffs, w)
        lu, _, vh = np.linalg.svd(m)
        cand = unit_vector(vh[-1].conj())
        res = pair_residual(p, cur, cand)
        if res < best[2]:
            best = (cur, cand, res)
        y = lu[:, -1].conj()
        slope = y @ horner([k * c for k, c in enumerate(coeffs)][1:], w) @ cand
        if not abs(slope) > FLOOR:
            break
        w_new = w - (y @ m @ cand) / slope
        if w != cur and not w_new:  # the reversed frame (w = 1/cur) stepped to infinity
            break
        cur = w_new if w == cur else 1 / w_new
    cand = null_vectors(p, cur)[0]
    res = pair_residual(p, cur, cand)
    if res < best[2]:
        best = (cur, cand, res)
    return EigenPair(best[0], best[1], None, best[2])


def invariant_pair_residual(p, u, lam):
    """||sum_i A_i U Lambda^i||_F / (||U||_F sum_i ||A_i||_F rho^i), rho = rho(Lambda).

    Both are divided by rho^k, k = lo if rho <= 1 and hi otherwise (:func:`core._in_disk`):
    Horner over t^(i-k) A_i U at Lambda/t, t = max(rho, 1), times (Lambda/rho)^lo, and
    ||A_i||_F rho^(i-k).  No weight exceeds 1, so nothing overflows; A_i, U are prescaled.
    """
    (u,), _, nu = _pow2_scaled([np.asarray(u, dtype=complex)])
    coeffs, _, _ = _pow2_scaled(p.coeffs)
    lam = np.asarray(lam, dtype=complex)
    rho = spectral_radius(lam)
    t = max(rho, 1.0)
    powers = np.arange(p.lo, p.hi + 1) - (p.hi if rho > 1.0 else p.lo)
    acc = matrix_horner([wt * (c @ u) for wt, c in zip(t ** powers, coeffs)], lam / t)
    if p.lo < 0:
        try:
            # rho = 0 leaves Lambda as it is: nilpotent, so singular
            acc = acc @ np.linalg.matrix_power(np.linalg.inv(lam / (rho or 1.0)), -p.lo)
        except np.linalg.LinAlgError as exc:
            raise SingularLambda("Lambda is singular; negative powers are undefined") from exc
    scale = max(np.linalg.norm(coeffs, axis=(1, 2)) @ rho ** powers, FLOOR)
    return float(np.linalg.norm(acc) / (nu * scale))

