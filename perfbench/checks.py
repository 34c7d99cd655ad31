"""Output checks that share no code with the library's own gates.

Every check reads what the command printed (``--format json``) or wrote, and
compares it with the input coefficients the benchmark generated.  A check
that rejects raises :class:`CheckFailed`; the attempt then counts as failed.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

RESIDUAL_TOL = 1e-8  # relative residual of a printed solvent, factor or shift
EIG_TOL = 1e-6  # chordal distance between a printed and a reference eigenvalue
RHO_EPS = 1e-8  # rho(G) <= 1 + RHO_EPS for a minimal solvent
# Unit-circle points for the factorization check: odd multiples of pi/7,
# none of them an 8th root of unity (the library checks those itself).
CIRCLE = tuple(cmath.exp(1j * math.pi * (2 * k + 1) / 7) for k in range(7))


class CheckFailed(Exception):
    """The benchmark's own check rejected an op's output."""


def matrix(rows):
    """Complex matrix from the CLI's ``[[[re, im], ...], ...]`` JSON form."""
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def read_mp(path):
    """(lo, coeffs) of an ``.mp.json`` file, parsed without the library."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return payload["lo"], [matrix(c) for c in payload["coeffs"]]


def value(coeffs, lo, z):
    """sum_k z^(lo+k) C_k."""
    return sum(c * z ** (lo + k) for k, c in enumerate(coeffs))


def scale(coeffs, lo, z):
    return max(sum(np.linalg.norm(c) * abs(z) ** (lo + k) for k, c in enumerate(coeffs)), 1e-300)


def rho(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def pencil_eigvals(coeffs):
    """Eigenvalues of the companion pencil of sum_i z^i A_i, by scipy (inf allowed)."""
    n, d = coeffs[0].shape[0], len(coeffs) - 1
    c1 = np.zeros((n * d, n * d), dtype=complex)
    c2 = np.eye(n * d, dtype=complex)
    c1[: n * (d - 1), n:] = np.eye(n * (d - 1))
    for j in range(d):
        c1[n * (d - 1):, n * j: n * (j + 1)] = -coeffs[j]
    c2[n * (d - 1):, n * (d - 1):] = coeffs[d]
    alpha, beta = scipy.linalg.eigvals(c1, c2, homogeneous_eigvals=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(beta == 0, complex(math.inf), alpha / np.where(beta == 0, 1, beta))


def _chordal(a, b):
    """Chordal distance on the Riemann sphere; inf is the north pole."""
    fa, fb = np.isfinite(a), np.isfinite(b)
    out = np.zeros(np.broadcast(a, b).shape)
    both = fa & fb
    aa, bb = np.where(fa, a, 0), np.where(fb, b, 0)
    out = np.where(both, np.abs(aa - bb) / np.sqrt((1 + np.abs(aa) ** 2) * (1 + np.abs(bb) ** 2)), out)
    out = np.where(fa & ~fb, 1 / np.sqrt(1 + np.abs(aa) ** 2), out)
    out = np.where(~fa & fb, 1 / np.sqrt(1 + np.abs(bb) ** 2), out)
    return out


def check_eig(payload, reference):
    """The n*d printed values match the reference pencil eigenvalues one to one."""
    got = np.array(
        [complex(math.inf) if v == "inf" else complex(*v) for v in
         (row["value"] for row in payload["eigenvalues"])]
    )
    _require(got.size == reference.size, f"{got.size} eigenvalues, expected {reference.size}")
    cost = _chordal(got[:, None], reference[None, :])
    r, c = linear_sum_assignment(cost)
    worst = float(cost[r, c].max())
    _require(worst <= EIG_TOL, f"eigenvalue off by chordal distance {worst:.2e}")


def check_solve(payload, coeffs):
    """sum_i A_i G^i is small relative to sum_i ||A_i||, and rho(G) <= 1 + eps."""
    g = matrix(payload["g"])
    acc = np.zeros_like(g)
    power = np.eye(g.shape[0], dtype=complex)
    for c in coeffs:
        acc += c @ power
        power = power @ g
    res = np.linalg.norm(acc) / sum(np.linalg.norm(c) for c in coeffs)
    _require(res <= RESIDUAL_TOL, f"solvent residual {res:.2e}")
    r = rho(g)
    _require(r <= 1 + RHO_EPS, f"rho(G) = {r:.12f} exceeds 1")


def _factor_residual(am1, a0, a1, g, r, k):
    eye = np.eye(a0.shape[0])
    total = np.linalg.norm(am1) + np.linalg.norm(a0) + np.linalg.norm(a1)
    return max(
        np.linalg.norm(am1 / z + a0 + z * a1 - (eye - z * r) @ k @ (eye - g / z)) / total
        for z in CIRCLE
    )


def check_factor(payload, am1, a0, a1):
    """A(z) = (I - zR+)K+(I - G+/z) and A(1/z) = (I - zR-)K-(I - G-/z) off the
    library's sample points, with contractive G and R factors."""
    plus = [matrix(payload[k]) for k in ("gplus", "rplus", "kplus")]
    minus = [matrix(payload[k]) for k in ("gminus", "rminus", "kminus")]
    res = _factor_residual(am1, a0, a1, *plus)
    _require(res <= RESIDUAL_TOL, f"A(z) factorization residual {res:.2e}")
    res = _factor_residual(a1, a0, am1, *minus)
    _require(res <= RESIDUAL_TOL, f"A(1/z) factorization residual {res:.2e}")
    for name, m in zip(("G+", "R+", "G-", "R-"), plus[:2] + minus[:2]):
        r = rho(m)
        _require(r < 1, f"rho({name}) = {r:.12f} is not below 1")


def check_shift(payload, path, right=None, left=None, singular_at=(), lead_kernel=None,
                palindromic=False):
    """Checks on the shifted polynomial written to ``path``.

    ``right=(mu, u)``: A~(mu) u = 0.  ``left=(mu, v)``: v* A~(mu) = 0.
    ``singular_at``: A~ is numerically singular at each listed point (where
    the command picks its own vectors).  ``lead_kernel``: the leading
    coefficient annihilates u.  ``palindromic``: A~_i = A~_{d-i}^*.  The
    command's own oracle must PASS as well.
    """
    _require(payload["oracle"]["passed"] is True, "determinant-ratio oracle did not pass")
    lo, coeffs = read_mp(path)
    if right is not None:
        mu, u = right
        res = np.linalg.norm(value(coeffs, lo, mu) @ u) / (np.linalg.norm(u) * scale(coeffs, lo, mu))
        _require(res <= RESIDUAL_TOL, f"||A~(mu) u|| residual {res:.2e}")
    if left is not None:
        mu, v = left
        res = np.linalg.norm(v.conj() @ value(coeffs, lo, mu)) / (np.linalg.norm(v) * scale(coeffs, lo, mu))
        _require(res <= RESIDUAL_TOL, f"||v* A~(mu)|| residual {res:.2e}")
    for z in singular_at:
        smin = np.linalg.svd(value(coeffs, lo, z), compute_uv=False)[-1]
        res = smin / scale(coeffs, lo, z)
        _require(res <= RESIDUAL_TOL, f"A~({z:.4g}) is not singular (sigma_min ratio {res:.2e})")
    if lead_kernel is not None:
        lead = coeffs[-1]
        res = np.linalg.norm(lead @ lead_kernel) / (np.linalg.norm(lead) * np.linalg.norm(lead_kernel))
        _require(res <= RESIDUAL_TOL, f"leading coefficient does not annihilate u ({res:.2e})")
    if palindromic:
        d = len(coeffs) - 1
        dev = max(np.linalg.norm(coeffs[i] - coeffs[d - i].conj().T) for i in range(d + 1))
        _require(dev <= 1e-12 * scale(coeffs, lo, 1.0), f"palindromic deviation {dev:.2e}")


def check_oracle(payload):
    _require(payload["passed"] is True, "check command did not pass")
