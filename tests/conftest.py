"""Shared fixtures and seeded instance builders for the test suite."""

import json
from dataclasses import replace

import numpy as np
import pytest

from mpshift import LaurentPoly, MatrixPoly, evaluate
from mpshift import fixtures as fx


@pytest.fixture
def p1():
    return fx.p1()


@pytest.fixture
def p2():
    return fx.p2()


@pytest.fixture
def p3():
    return fx.p3()


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_poly(rng, n, d):
    return MatrixPoly([crandn(rng, n, n) for _ in range(d + 1)])


def rand_laurent(rng, n, lo, hi):
    return LaurentPoly(lo, [crandn(rng, n, n) for _ in range(hi - lo + 1)])


def _sub_at_zero(p, corr):
    coeffs = list(np.array(c) for c in p.coeffs)
    coeffs[-p.lo] = coeffs[-p.lo] - corr
    return replace(p, coeffs=coeffs)


def plant_right(p, lam, u):
    """Rank-one correction of the z^0 coefficient making (lam, u) an exact eigenpair."""
    u = np.asarray(u, dtype=complex)
    corr = np.outer(evaluate(p, lam) @ u, u.conj()) / np.vdot(u, u)
    return _sub_at_zero(p, corr)


def plant_left(p, lam, v):
    v = np.asarray(v, dtype=complex)
    corr = np.outer(v, v.conj() @ evaluate(p, lam)) / np.vdot(v, v)
    return _sub_at_zero(p, corr)


def plant_right_pairs(p, pairs):
    """Plant several right eigenpairs at once (independent eigenvectors)."""
    umat = np.column_stack([np.asarray(u, dtype=complex) for _, u in pairs])
    rmat = np.column_stack([evaluate(p, lam) @ np.asarray(u, dtype=complex) for lam, u in pairs])
    corr = rmat @ np.linalg.pinv(umat)
    return _sub_at_zero(p, corr)


def shared_kernel_poly(rng, n, d):
    """A degree-d polynomial whose coefficients share a kernel vector: det A(z) == 0."""
    w = crandn(rng, n)
    proj = np.eye(n) - np.outer(w, w.conj()) / np.vdot(w, w)
    return MatrixPoly([crandn(rng, n, n) @ proj for _ in range(d + 1)])


def far_quadratic(lam, seed=443, n=4):
    """A random quadratic with the exact eigenpair (lam, u): A_2 u = 0 and
    A_0 u = -lam A_1 u, so A_0 grows with |lam|.  Returns (p, u), u unit."""
    rng = np.random.default_rng(seed)
    a0, a1, a2 = (crandn(rng, n, n) for _ in range(3))
    u = crandn(rng, n)
    u = u / np.linalg.norm(u)
    a2 = a2 - np.outer(a2 @ u, u.conj())
    a0 = a0 - np.outer(a0 @ u + lam * (a1 @ u), u.conj())
    return MatrixPoly([a0, a1, a2]), u


def plant_kernel_lead(p, u):
    """Make u an exact kernel vector of the leading coefficient."""
    u = np.asarray(u, dtype=complex)
    coeffs = [np.array(c) for c in p.coeffs]
    lead = coeffs[-1]
    coeffs[-1] = lead - np.outer(lead @ u, u.conj()) / np.vdot(u, u)
    return MatrixPoly(coeffs)


def qbd_quadratic(rng, n, sub=0.9):
    """Subcritical QBD-style quadratic Laurent coefficients (A_-1, A_0, A_1).

    Nonnegative blocks scaled so the three sum to `sub` times a row-stochastic
    matrix; all quadratic eigenvalues split cleanly across the unit circle.
    """
    b = [1.2 * rng.random((n, n)), rng.random((n, n)), 0.8 * rng.random((n, n))]
    tot = (b[0] + b[1] + b[2]) @ np.ones(n)
    b = [x / tot[:, None] * sub for x in b]
    return b[0], b[1] - np.eye(n), b[2]


def critical_qbd(seed, n, drift, scale=1.0):
    """Near-critical QBD quadratic Laurent coefficients (A_-1, A_0, A_1).

    Random nonnegative blocks with row sums 0.3 + drift/2, 0.4 and
    0.3 - drift/2, so B_-1 + B_0 + B_1 is row stochastic and z = 1 is an
    eigenvalue (on the unit circle); A_0 = scale B_0 - I and the other two
    are scale B_(+-1).  scale < 1 pulls every eigenvalue off the circle.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for r in (0.3 + drift / 2, 0.4, 0.3 - drift / 2):
        b = rng.random((n, n))
        blocks.append(scale * b * (r / b.sum(axis=1))[:, None])
    return blocks[0], blocks[1] - np.eye(n), blocks[2]


def palindromic_quad(rng, n):
    a0 = crandn(rng, n, n)
    r = crandn(rng, n, n)
    return MatrixPoly([a0, r + r.conj().T, a0.conj().T])


def real_palindromic_quad(rng, n, scale=1.0):
    """scale times [A_0, R + R^T, A_0^T] for real standard normal A_0 and R."""
    a0, r = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return MatrixPoly([scale * a0, scale * (r + r.T), scale * a0.T])


def match_moduli(got, expected, split_inf=True):
    """Max matching distance between two complex multisets (optimal assignment).

    Infinite entries are matched by count; finite entries by the Hungarian
    assignment on pairwise distances.
    """
    from scipy.optimize import linear_sum_assignment

    got = list(got)
    expected = list(expected)
    assert len(got) == len(expected)
    if split_inf:
        gi = [g for g in got if not np.isfinite(complex(g))]
        ei = [e for e in expected if not np.isfinite(complex(e))]
        assert len(gi) == len(ei), f"infinite counts differ: {len(gi)} vs {len(ei)}"
        got = [g for g in got if np.isfinite(complex(g))]
        expected = [e for e in expected if np.isfinite(complex(e))]
    if not got:
        return 0.0
    cost = np.abs(np.subtract.outer(np.array(got, dtype=complex), np.array(expected, dtype=complex)))
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def poly_scale(p):
    return float(sum(np.linalg.norm(c) for c in p.coeffs))


def mp_json_reference(p):
    """The ``.mp.json`` text of ``p`` as the per-entry ``json.dumps`` encoder writes it."""
    coeffs = [
        [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(c)]
        for c in p.coeffs
    ]
    return json.dumps({"n": p.n, "lo": p.lo, "coeffs": coeffs}, indent=1) + "\n"
