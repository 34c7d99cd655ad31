"""Eigenvalues, eigenvectors, and invariant pairs of matrix polynomials.

The polynomial eigenvalue problem det A(z) = 0 is solved through the
Frobenius companion linearization C1 - z C2 combined with a Cayley-type
spectral transform: for a random point c off the spectrum, the matrix
M = (C1 - c C2)^{-1} C2 has eigenvalues theta = 1/(z - c), so a standard
dense eigensolver recovers every z, with theta = 0 corresponding to
eigenvalues at infinity (singular leading coefficient).  Eigenvectors are
recomputed from the SVD of A(z), decoupling their accuracy from the
conditioning of the linearization.

The Cayley point c is redrawn on |c| = 0.9 until rcond(A(c)) = sigma_min /
sigma_max exceeds RANK_TOL = 1e-13, a test invariant to scale and dimension;
after 10 failed draws det A(z) vanishes identically (DegeneratePolynomial).
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
    derivative_at,
    evaluate,
    is_infinite,
    matrix_horner,
    pair_residual,
    rcond,
    unit_vector,
)
from .errors import (
    DegeneratePolynomial,
    DependentEigenvectors,
    DimensionMismatch,
    DistinctnessViolated,
    EigensolverFailure,
    NotInvariant,
    SingularLambda,
    ZeroAtNegativePower,
)

# |theta| below HARD_INF_TOL * ||M||_F is an eigenvalue at infinity; values in
# the borderline band up to SOFT_INF_TOL * ||M||_F count as infinite only when
# the leading coefficient is itself numerically singular (a defective infinite
# eigenvalue splits like sqrt(machine eps) under a dense eigensolver).
HARD_INF_TOL = 1e-10
SOFT_INF_TOL = 1e-6


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

    def infinite(self):
        return [p for p in self.pairs if p.is_infinite]


def null_vectors(p, z, left=False):
    """Unit right (and, with ``left``, left) singular vectors of A(z)'s smallest
    singular value; at infinite z those of the leading coefficient.

    Returns ``(u, y)`` with ``A(z) u ~ 0`` and ``y* A(z) ~ 0``; ``y`` is None
    unless ``left``.
    """
    m = p.coeffs[-1] if is_infinite(z) else evaluate(p, z)
    lu, _, vh = np.linalg.svd(m)
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
    nonsingular = False
    for _ in range(10):
        c = 0.9 * cmath.exp(2j * math.pi * rng.random())
        if not rcond(evaluate(p, c)) > RANK_TOL:
            continue
        if pencil is None:
            return Spectrum((), 0.0 + 0.0j)
        nonsingular = True
        try:
            m = np.linalg.solve(pencil.c1 - c * pencil.c2, pencil.c2)
        except np.linalg.LinAlgError:
            continue
        break
    else:
        if not nonsingular:
            raise DegeneratePolynomial("det A(z) vanishes at all probe points")
        raise EigensolverFailure("no usable Cayley point after 10 attempts")

    try:
        thetas = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"dense eigensolver failed: {exc}") from exc

    m_scale = np.linalg.norm(m)
    lead = p.coeffs[-1]
    lead_singular = None  # computed lazily for borderline thetas
    pairs = []
    for theta in thetas:
        at = abs(theta)
        infinite = at <= HARD_INF_TOL * m_scale
        borderline = False
        if not infinite and at <= SOFT_INF_TOL * m_scale:
            if lead_singular is None:
                svals = np.linalg.svd(lead, compute_uv=False)
                lead_singular = svals[-1] <= 1e-8 * max(np.linalg.norm(lead), FLOOR)
            if lead_singular:
                infinite = True
                borderline = True
        z = complex(math.inf, 0.0) if infinite else c + 1.0 / theta
        u, left = null_vectors(p, z, want_left)
        pairs.append(EigenPair(z, u, left, pair_residual(p, z, u), borderline))

    pairs.sort(key=lambda q: (q.is_infinite, abs(q.value), q.value.real, q.value.imag))
    return Spectrum(tuple(pairs), complex(c))


def refine_pair(p, lam, u, steps=4):
    """Polish a finite eigenpair by SVD vector extraction and Newton steps.

    Returns an :class:`EigenPair` whose residual is no larger than that of
    the input; the input is returned unchanged when no improvement is found.
    """
    lam = complex(lam)
    if is_infinite(lam):
        raise DimensionMismatch("refine_pair handles finite eigenvalues only")
    u0 = np.asarray(u, dtype=complex).reshape(-1)
    best = (lam, u0, pair_residual(p, lam, u0))

    cur = lam
    for _ in range(steps):
        m = evaluate(p, cur)
        lu, sv, vh = np.linalg.svd(m)
        cand = unit_vector(vh[-1].conj())
        res = pair_residual(p, cur, cand)
        if res < best[2]:
            best = (cur, cand, res)
        vleft = lu[:, -1]
        try:
            slope = vleft.conj() @ derivative_at(p, cur) @ cand
        except ZeroAtNegativePower:
            break
        if abs(slope) <= FLOOR:
            break
        cur = cur - (vleft.conj() @ m @ cand) / slope
    cand = null_vectors(p, cur)[0]
    res = pair_residual(p, cur, cand)
    if res < best[2]:
        best = (cur, cand, res)
    return EigenPair(best[0], best[1], None, best[2])


@dataclass(frozen=True, eq=False)
class InvariantPair:
    """U (n x m) and diagonal Lambda (m x m) with sum_i A_i U Lambda^i = 0.

    ``v`` satisfies v* U = I, ready for use as the dual block in a multishift.
    """

    u: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    residual: float


def invariant_pair_residual(p, u, lam):
    """||sum_i A_i U Lambda^i||_F normalized by ||U||_F and the coefficient scale.

    The sum is (sum_k A_{lo+k} U Lambda^k) Lambda^lo, the first factor by Horner.
    """
    u = np.asarray(u, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    rho = spectral_radius(lam)
    acc = matrix_horner([c @ u for c in p.coeffs], lam)
    if p.lo < 0:
        try:
            lam_inv = np.linalg.inv(lam)
        except np.linalg.LinAlgError as exc:
            raise SingularLambda("Lambda is singular; negative powers are undefined") from exc
        acc = acc @ np.linalg.matrix_power(lam_inv, -p.lo)
        rho = max(rho, FLOOR)
    scale = max(sum(np.linalg.norm(c) * rho ** (p.lo + k) for k, c in enumerate(p.coeffs)), FLOOR)
    return float(np.linalg.norm(acc) / (max(np.linalg.norm(u), FLOOR) * scale))


def invariant_pair(p, selected):
    """Assemble an invariant pair from finite, pairwise-distinct eigenpairs.

    Parameters
    ----------
    p : LaurentPoly
    selected : sequence of EigenPair
        Finite eigenpairs with linearly independent right vectors.

    Returns
    -------
    InvariantPair with U = [u_1 ... u_m], Lambda = diag(lambda_1..lambda_m),
    and V = U (U* U)^{-1} so that V* U = I.
    """
    pairs = list(selected)
    if not pairs:
        raise DimensionMismatch("at least one eigenpair is required")
    if any(q.is_infinite for q in pairs):
        raise DistinctnessViolated("invariant pairs are built from finite eigenvalues")
    values = [complex(q.value) for q in pairs]
    top = max(1.0, max(abs(v) for v in values))
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) <= 1e-12 * top:
                raise DistinctnessViolated(
                    f"eigenvalues {values[i]} and {values[j]} coincide"
                )
    u = np.column_stack([q.right for q in pairs])
    if u.shape[1] >= u.shape[0]:
        raise DimensionMismatch("packet size m must be smaller than the dimension n")
    smin = np.linalg.svd(u, compute_uv=False)[-1]
    if smin < 1e-8:
        raise DependentEigenvectors(f"smallest singular value of U is {smin:.2e}")
    lam = np.diag(values)
    v = np.linalg.pinv(u).conj().T
    res = invariant_pair_residual(p, u, lam)
    if not res <= 1e-8:
        raise NotInvariant(f"invariant-pair residual {res:.2e} exceeds 1e-8")
    return InvariantPair(u, lam, v, res)
