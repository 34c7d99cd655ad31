"""Minimal-solvent solution of unilateral matrix equations sum_i A_i X^i = 0.

The minimal solvent G carries the n smallest-modulus eigenvalues of A(z).
Degree-d equations are reduced to block quadratics (degree-2 embedding that
adds only eigenvalues at the origin), solved by cyclic reduction, whose
error decays like sigma^(2^k) with sigma = |lambda_n| / |lambda_{n+1}| for
the eigenvalues ordered by modulus.  Each solve reads sigma off its own
cyclic reduction as rho(G+) rho(R+) (the embedding's extra zeros do not
change it); it equals :func:`convergence_ratio` whenever exactly n
eigenvalues lie in the closed unit disk.  A pencil is embedded with a zero
A_2, so cyclic reduction stops at step 0 with sigma = 0: every further
eigenvalue is at infinity.  When an eigenvalue sits on or near the circle,
sigma -> 1 and convergence crawls; shifting that eigenvalue away (e.g.
1 -> 0) shrinks sigma: :func:`shift_accelerated_solve` is the plain
solve of the shifted equation, and the solvent of the original equation is
recovered in closed form from the shifted one: G = G~ + (lambda - mu) Q.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import RESIDUAL_TOL, _check, as_working, equation_residual, is_infinite, rcond
from .errors import (
    DegenerateShift,
    DimensionMismatch,
    IllConditionedEigenbasis,
    NoConvergence,
    NoSplitting,
    SplittingFailure,
)
from .factorizations import cr_quadratic
from .shifts import ShiftSpec, right_shift_poly
from .spectra import polyeig

BOUNDARY_TOL = 1e-9  # |lambda| <= 1 + BOUNDARY_TOL counts as inside


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Result of a unilateral solve.

    ``iterations`` is the number of cyclic reduction steps (0 for the
    "eigen" method, which runs none, and for a pencil).  ``residual`` is
    ||sum_i A_i G^i||_F / sum_i ||A_i||_F.  ``sigma`` is the convergence
    ratio |lambda_n| / |lambda_{n+1}| of the solved equation
    (the shifted one for shift-accelerated runs), 0 when every eigenvalue
    beyond the nth is at infinity, as for a pencil.  For shift-accelerated
    runs ``shifted`` is True and ``recovery`` holds the (lambda, mu, Q)
    triple used to map the shifted solvent back.
    """

    g: np.ndarray
    iterations: int
    residual: float
    sigma: float
    shifted: bool = False
    recovery: tuple = None


@dataclass(frozen=True, eq=False)
class ReblockedQuadratic:
    """Degree-2 block embedding of a degree-d unilateral equation.

    A pencil (d = 1) is padded with a zero A_2 and embedded as d = 2.  With
    k = d-1, N = n k and s = max_i ||A_i||_inf (the largest double if
    that row sum overflows): B_{-1} holds A_0 in block (1,1); B_0 has first
    block row [A_1 ... A_{d-1}] and -s I on the remaining diagonal; B_1 has
    A_d in block (1,k) and s I on the subdiagonal.  The factor s makes the
    embedding of alpha A(z) alpha times the embedding of A(z), so cyclic
    reduction on it does not depend on the scale of the input (the inf-norm,
    a row sum, stays finite where a Frobenius norm of entries above 1e154
    overflows).  The blocks are real for real coefficients.  If G solves the
    original equation, the block column (G, G^2, ..., G^k) padded with zeros
    solves the quadratic, and det(B_{-1} + z B_0 + z^2 B_1) has the roots of
    det A(z) plus (d-2) n zeros at the origin.
    """

    bm1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray


def reblock(p):
    """Embed a degree >= 1 matrix polynomial, a pencil padded with a zero A_2,
    into an equivalent block quadratic."""
    if p.lo != 0:
        raise DimensionMismatch("reblock expects a matrix polynomial")
    if p.d < 1:
        raise DimensionMismatch("reblock needs degree >= 1")
    n, d = p.n, max(p.d, 2)
    (coeffs,) = as_working(np.array([*p.coeffs, *np.zeros((d - p.d, n, n))]))  # A_0, ..., A_d
    k = d - 1
    big = n * k
    bm1, b0, b1 = np.zeros((3, big, big), dtype=coeffs.dtype)
    bm1[:n, :n] = coeffs[0]
    for j in range(k):
        b0[:n, j * n : (j + 1) * n] = coeffs[j + 1]
    if k > 1:
        with np.errstate(over="ignore", invalid="ignore"):  # a row sum beyond double range is capped
            s_eye = min(np.abs(coeffs).sum(axis=2).max(), math.nextafter(math.inf, 0)) * np.eye(n)
        for i in range(1, k):
            b0[i * n : (i + 1) * n, i * n : (i + 1) * n] = -s_eye
            b1[i * n : (i + 1) * n, (i - 1) * n : i * n] = s_eye
    b1[:n, (k - 1) * n :] = coeffs[d]
    return ReblockedQuadratic(bm1, b0, b1)


def convergence_ratio(p, seed=0):
    """sigma = max modulus inside the unit disk / min modulus outside.

    Eigenvalues within 1e-9 of the unit circle count as inside.  Raises
    :class:`NoSplitting` when either side is empty.
    """
    spec = polyeig(p, seed=seed)
    inside = []
    outside = []
    for q in spec.pairs:
        mod = abs(q.value)
        if mod <= 1.0 + BOUNDARY_TOL:
            inside.append(mod)
        else:
            outside.append(mod)
    if not inside or not outside:
        raise NoSplitting(
            f"{len(inside)} eigenvalues inside, {len(outside)} outside the unit circle"
        )
    return float(max(inside) / min(outside))


def _solve_cr(p, tol, maxit):
    """Minimal solvent, CR steps and sigma = rho(G+) rho(R+)."""
    rq = reblock(p)
    try:
        f = cr_quadratic(rq.bm1, rq.b0, rq.b1, tol=tol, maxit=maxit, strict_radius=False)
    except NoConvergence as exc:
        if exc.step is not None:  # non-finite blocks say nothing about the splitting
            raise
        raise SplittingFailure(str(exc), name=exc.name, value=exc.value, tol=exc.tol) from exc
    return np.array(f.gplus[:p.n, :p.n]), f.iterations, f.rho_g * f.rho_r


def _solve_eigen(p, seed):
    n = p.n
    spec = polyeig(p, seed=seed)
    finite = spec.finite()
    if len(finite) < n:
        raise SplittingFailure(
            f"only {len(finite)} finite eigenvalues; cannot select {n} inside a circle"
        )
    pairs = sorted(spec.pairs, key=lambda q: abs(q.value))
    chosen = pairs[:n]
    if any(q.is_infinite for q in chosen):
        raise SplittingFailure("infinite eigenvalue among the smallest n")
    gap_lo = abs(chosen[-1].value)
    gap_hi = abs(pairs[n].value) if len(pairs) > n else math.inf
    if math.isfinite(gap_hi):
        _check(SplittingFailure, "solve_eigen.gap", (gap_hi - gap_lo) / max(gap_hi, 1.0),
               BOUNDARY_TOL, "no circle separates moduli {:.6f} and {:.6f}", gap_lo, gap_hi, op=">")
    vals = [complex(q.value) for q in chosen]
    gap, i, j = min(((abs(vals[i] - vals[j]) / max(1.0, abs(vals[i])), i, j)
                     for i in range(n) for j in range(i + 1, n)), default=(math.inf, 0, 0))
    _check(IllConditionedEigenbasis, "solve_eigen.distinct", gap, 1e-12,
           "selected eigenvalues {} and {} coincide", vals[i], vals[j], op=">")
    vmat = np.column_stack([q.right for q in chosen])
    rc = rcond(vmat)
    _check(IllConditionedEigenbasis, "solve_eigen.rcond", rc, 1e-8,
           "reciprocal condition of the eigenvector basis is {:.2e}", rc, op=">=")
    g = np.linalg.solve(vmat.T, (vmat @ np.diag(vals)).T).T
    return g, 0, gap_lo / gap_hi


def solve_unilateral(p, method="cr", tol=1e-14, maxit=64, seed=0):
    """Minimal solvent of sum_i A_i X^i = 0.

    Parameters
    ----------
    p : LaurentPoly with lo = 0
    method : "cr" or "eigen"
        "cr": reblock to a quadratic and run cyclic reduction (handles
        eigenvalues on the circle, if slowly).  "eigen": diagonalization from
        the n smallest eigenpairs (requires distinct eigenvalues and a
        well-conditioned eigenvector basis).  Each reports the sigma of the
        spectrum it already computed: rho(G+) rho(R+) from cyclic reduction,
        or the ratio of the nth and (n+1)th sorted moduli.
    seed : int
        Seed of the eigensolver's random probe points ("eigen" only).
    """
    if p.lo != 0:
        raise DimensionMismatch("solve_unilateral expects a matrix polynomial")
    if p.d < 1:
        raise DimensionMismatch("the equation needs degree >= 1")
    if method == "cr":
        g, iterations, sigma = _solve_cr(p, tol, maxit)
    elif method == "eigen":
        g, iterations, sigma = _solve_eigen(p, seed)
    else:
        raise ValueError(f"unknown method {method!r}")
    res = equation_residual(p, g)
    _check(NoConvergence, "solve_unilateral.residual", res, RESIDUAL_TOL,
           "solvent residual {:.2e} exceeds 1e-10", res)
    return SolveReport(g, iterations, res, sigma)


def shift_accelerated_solve(p, lam, u, v=None, mu=0.0, tol=1e-14, maxit=64):
    """Solve sum_i A_i X^i = 0 by shifting a unit-circle eigenvalue away first.

    Three steps: :func:`~mpshift.shifts.right_shift_poly` moves the eigenpair
    (lam, u) to mu (default 0), :func:`solve_unilateral` solves the shifted
    equation by cyclic reduction under its own residual gate, and the original
    minimal solvent is recovered as G = G~ + (lam - mu) Q.  The recovered G is
    verified on the original equation to 1e-8 (looser than the shifted
    residual: the rank-one recovery carries the conditioning of the shift).
    Like :func:`solve_unilateral`, it takes matrix polynomials (lo = 0) only.
    """
    lam = complex(lam)
    mu = complex(mu)
    if is_infinite(lam) or is_infinite(mu):
        raise DegenerateShift("finite lambda and mu are required here")
    if mu == lam:
        raise DegenerateShift("mu equals lambda: the shift would be a no-op")
    if abs(mu) >= abs(lam):
        warnings.warn(
            "acceleration expects |mu| < |lambda|; convergence may not improve",
            stacklevel=2,
        )
    spec = ShiftSpec(lam, mu, u, v)
    shifted = solve_unilateral(right_shift_poly(p, spec), tol=tol, maxit=maxit)
    q = spec.q
    g = shifted.g + (lam - mu) * q
    res = equation_residual(p, g)
    _check(NoConvergence, "shift_accelerated_solve.recovered", res, 1e-8,
           "recovered solvent fails the original equation: residual {:.2e}", res)
    return SolveReport(g, shifted.iterations, res, shifted.sigma, shifted=True,
                       recovery=(lam, mu, q))
