"""Shared fixtures and seeded instance builders for the test suite."""

import json

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
    if isinstance(p, MatrixPoly):
        coeffs[0] = coeffs[0] - corr
        return MatrixPoly(coeffs)
    coeffs[-p.lo] = coeffs[-p.lo] - corr
    return LaurentPoly(p.lo, coeffs, p.truncated)


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


def palindromic_quad(rng, n):
    a0 = crandn(rng, n, n)
    r = crandn(rng, n, n)
    return MatrixPoly([a0, r + r.conj().T, a0.conj().T])


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
