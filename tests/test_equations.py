"""Unilateral matrix equations: reblocking, solving, shift acceleration, ratios."""

import math

import numpy as np
import pytest

from mpshift import (
    MatrixPoly,
    convergence_ratio,
    equation_residual,
    reblock,
    shift_accelerated_solve,
    solve_unilateral,
)
from mpshift.errors import (
    DegenerateShift,
    DimensionMismatch,
    NoSplitting,
    NotAnEigenpair,
    SplittingFailure,
)

from conftest import critical_qbd, crandn, qbd_quadratic, rand_poly


def test_p3_row_sums_are_exact_in_integer_arithmetic():
    # numerators over the common denominators D = diag(57,49,41,33,25):
    # 9*T + T^T + 2*E + I must have row sums equal to D's diagonal
    n = 5
    t = np.triu(np.ones((n, n), dtype=object))
    e = np.ones((n, n), dtype=object)
    total = 9 * t + t.T + 2 * e + np.eye(n, dtype=object)
    sums = [int(sum(total[i, j] for j in range(n))) for i in range(n)]
    assert sums == [57, 49, 41, 33, 25]


# --- reblocking ---

def test_reblock_degree_two_passthrough(p1):
    rq = reblock(p1)
    assert np.array_equal(rq.bm1, p1.coeffs[0])
    assert np.array_equal(rq.b0, p1.coeffs[1])
    assert np.array_equal(rq.b1, p1.coeffs[2])


def test_reblock_scalar_quartic_substitution_exact():
    # (z-1/2)(z-1/4)(z-3)(z-5): minimal solvent of the scalar equation is 1/4
    roots = [0.5, 0.25, 3.0, 5.0]
    coeffs = np.poly(roots)[::-1]  # ascending
    p = MatrixPoly([np.array([[c]]) for c in coeffs])
    rq = reblock(p)
    g = 0.25
    big = np.zeros((3, 3), dtype=complex)
    big[:, 0] = [g, g**2, g**3]
    res = rq.bm1 + rq.b0 @ big + rq.b1 @ big @ big
    assert np.linalg.norm(res) <= 1e-13


def test_reblock_p3_structure(p3):
    rq = reblock(p3)
    n, k = 5, 3
    assert rq.bm1.shape == (15, 15)
    assert np.array_equal(rq.bm1[:n, :n], p3.coeffs[0])
    assert np.count_nonzero(rq.bm1[n:, :]) == 0
    for j in range(k):
        assert np.array_equal(rq.b0[:n, j * n : (j + 1) * n], p3.coeffs[j + 1])
    assert np.array_equal(rq.b1[:n, 2 * n :], p3.coeffs[4])
    for i in range(1, k):
        assert np.array_equal(
            rq.b0[i * n : (i + 1) * n, i * n : (i + 1) * n], -np.eye(n, dtype=complex)
        )
        assert np.array_equal(
            rq.b1[i * n : (i + 1) * n, (i - 1) * n : i * n], np.eye(n, dtype=complex)
        )


def test_reblock_determinant_has_extra_origin_zeros():
    rng = np.random.default_rng(307)
    p = rand_poly(rng, 2, 4)
    rq = reblock(p)
    # det(B(z)) = const * z^{(d-2) n} * det A(z); fit const at one point
    from mpshift import det_at

    def quad_det(z):
        return complex(np.linalg.det(rq.bm1 + z * rq.b0 + z * z * rq.b1))

    z0 = 0.9 * np.exp(0.7j)
    const = quad_det(z0) / (z0 ** 4 * det_at(p, z0))
    for z in (1.1 * np.exp(2.1j), 0.65 * np.exp(-1.2j), 1.35 * np.exp(0.3j)):
        lhs = quad_det(z)
        rhs = const * z**4 * det_at(p, z)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_reblock_known_solvent_substitution():
    rng = np.random.default_rng(311)
    n, d = 3, 4
    g = 0.4 * crandn(rng, n, n) / np.sqrt(n)
    tail = [crandn(rng, n, n) for _ in range(d)]
    a0 = -sum(c @ np.linalg.matrix_power(g, i + 1) for i, c in enumerate(tail))
    p = MatrixPoly([a0] + tail)
    assert equation_residual(p, g) <= 1e-13
    rq = reblock(p)
    big = np.zeros((n * (d - 1), n * (d - 1)), dtype=complex)
    for i in range(d - 1):
        big[i * n : (i + 1) * n, :n] = np.linalg.matrix_power(g, i + 1)
    res = rq.bm1 + rq.b0 @ big + rq.b1 @ big @ big
    scale = sum(np.linalg.norm(c) for c in p.coeffs)
    assert np.linalg.norm(res) <= 1e-12 * scale


def test_reblock_rejects_degree_one():
    p = MatrixPoly([np.eye(2), np.eye(2)])
    with pytest.raises(DimensionMismatch):
        reblock(p)


# --- solve_unilateral ---

def test_solve_scalar_quadratic():
    p = MatrixPoly([np.array([[-0.25]]), np.array([[1.0]]), np.array([[-0.25]])])
    rep = solve_unilateral(p)
    assert abs(rep.g[0, 0] - (2.0 - math.sqrt(3.0))) <= 1e-14


def test_solve_p3_iteration_count(p3):
    rep = solve_unilateral(p3)
    assert abs(rep.iterations - 12) <= 2
    assert rep.residual <= 1e-10
    assert not rep.shifted


def test_solve_degree_one_pencil():
    m = np.array([[0.5, 0.2], [0.1, 0.3]])
    p = MatrixPoly([-m, np.eye(2)])
    rep = solve_unilateral(p)
    assert rep.iterations == 1
    assert np.allclose(rep.g, m, atol=1e-14)


def test_solve_methods_agree_on_clean_split():
    rng = np.random.default_rng(313)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    p = MatrixPoly([am1, a0, a1])
    cr = solve_unilateral(p, method="cr")
    eig = solve_unilateral(p, method="eigen")
    assert np.linalg.norm(cr.g - eig.g) <= 1e-7


def test_solve_eigen_p3(p3):
    rep = solve_unilateral(p3, method="eigen")
    assert rep.residual <= 1e-10


def test_solve_splitting_failure():
    # (z - 1)(z - i): both roots on the unit circle, no separating gap
    p = MatrixPoly([np.array([[1j]]), np.array([[-1 - 1j]]), np.array([[1.0]])])
    from mpshift.errors import SingularPivot

    with pytest.raises((SplittingFailure, SingularPivot)):
        solve_unilateral(p, maxit=48)


# --- shift-accelerated solve ---

def test_shift_accelerated_p3(p3):
    e = np.ones(5)
    plain = solve_unilateral(p3)
    fast = shift_accelerated_solve(p3, 1.0, e, e / 5, 0.0)
    assert abs(fast.iterations - 6) <= 2
    assert fast.iterations < plain.iterations
    assert fast.shifted and fast.recovery[0] == 1.0 and fast.recovery[1] == 0.0
    assert equation_residual(p3, fast.g) <= 1e-8


def test_shift_accelerated_recovers_direct_solvent(p3):
    e = np.ones(5)
    fast = shift_accelerated_solve(p3, 1.0, e, e / 5, 0.0)
    direct = solve_unilateral(p3, method="eigen")
    assert np.linalg.norm(fast.g - direct.g) <= 1e-6


def test_shift_accelerated_seeded_recovery():
    rng = np.random.default_rng(331)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    p = MatrixPoly([am1, a0, a1])
    direct = solve_unilateral(p, method="eigen")
    vals, vecs = np.linalg.eig(direct.g)
    k = int(np.argmax(np.abs(vals)))
    fast = shift_accelerated_solve(p, vals[k], vecs[:, k], mu=0.0)
    assert np.linalg.norm(fast.g - direct.g) <= 1e-6


def test_shift_accelerated_rejects_noop(p3):
    with pytest.raises(DegenerateShift):
        shift_accelerated_solve(p3, 1.0, np.ones(5), mu=1.0)


def test_shift_accelerated_rejects_bad_eigenpair(p3):
    with pytest.raises(NotAnEigenpair):
        shift_accelerated_solve(p3, 0.9, np.ones(5), mu=0.0)


def test_iterations_monotone_in_sigma(p3):
    plain = solve_unilateral(p3)
    fast = shift_accelerated_solve(p3, 1.0, np.ones(5), np.ones(5) / 5, 0.0)
    assert fast.sigma < plain.sigma
    assert fast.iterations <= plain.iterations


def test_production_size_near_critical_qbd():
    n = 200
    p = MatrixPoly(critical_qbd(7, n, drift=5e-4))
    plain = solve_unilateral(p)
    fast = shift_accelerated_solve(p, 1.0, np.ones(n), np.ones(n) / n, 0.0)
    assert plain.residual <= 1e-10 and fast.residual <= 1e-10
    assert fast.iterations < plain.iterations
    assert plain.g.dtype == fast.g.dtype == np.complex128


# --- convergence ratio ---

def test_convergence_ratio_p3(p3):
    sigma = convergence_ratio(p3)
    assert abs(sigma - 0.98758) <= 1e-4


def test_convergence_ratio_p3_shifted(p3):
    fast = shift_accelerated_solve(p3, 1.0, np.ones(5), np.ones(5) / 5, 0.0)
    assert 0.20 <= fast.sigma <= 0.23


def test_smallest_outside_modulus_p3(p3):
    from mpshift import polyeig

    mods = [abs(q.value) for q in polyeig(p3).pairs if abs(q.value) > 1 + 1e-9]
    assert abs(min(mods) - 1.01258) <= 1e-4


def test_convergence_ratio_diagonal():
    p = MatrixPoly([-np.diag([0.5, 2.0]), np.eye(2)])
    assert abs(convergence_ratio(p) - 0.25) <= 1e-12


def test_convergence_ratio_no_splitting():
    p = MatrixPoly([-np.diag([0.1, 0.2]), np.eye(2)])
    with pytest.raises(NoSplitting):
        convergence_ratio(p)
