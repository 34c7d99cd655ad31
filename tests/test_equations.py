"""Unilateral matrix equations: reblocking, solving, shift acceleration, ratios."""

import math

import numpy as np
import pytest

from mpshift import (
    MatrixPoly,
    ShiftSpec,
    convergence_ratio,
    equation_residual,
    reblock,
    right_shift_poly,
    shift_accelerated_solve,
    solve_unilateral,
    unit_vector,
)
from mpshift.errors import (
    DegenerateShift,
    DimensionMismatch,
    IllConditionedEigenbasis,
    NoConvergence,
    NoSplitting,
    NotAnEigenpair,
    SplittingFailure,
)

from mpshift import fixtures as fx

from conftest import critical_qbd, crandn, plant_right, qbd_quadratic, rand_laurent, rand_poly


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


@pytest.mark.filterwarnings("error")
def test_reblock_degree_two_where_a_row_sum_overflows(p1):
    # ||A_1||_inf of this multiple of p1 is beyond double range while every
    # entry is finite; the degree-2 embedding has no s I block, so the blocks
    # are the coefficients and the solve neither warns nor fails
    big = MatrixPoly([1.2 * 2.0**1021 * c for c in p1.coeffs])
    with np.errstate(over="ignore"):
        assert np.abs(big.coeffs[1]).sum(axis=1).max() == math.inf
    rq = reblock(big)
    for b, c in zip((rq.bm1, rq.b0, rq.b1), big.coeffs):
        assert np.array_equal(b, c)
    rep, rep_1 = solve_unilateral(big), solve_unilateral(p1)
    assert rep.iterations == rep_1.iterations and rep.residual <= 1e-15
    assert np.linalg.norm(rep.g - rep_1.g) <= 1e-12 * np.linalg.norm(rep_1.g)


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
    # the identity blocks carry s = max ||A_i||_inf; p3 is real, so are the blocks
    s = max(np.linalg.norm(c.real, np.inf) for c in p3.coeffs)
    assert all(b.dtype == np.float64 for b in (rq.bm1, rq.b0, rq.b1))
    for i in range(1, k):
        assert np.array_equal(rq.b0[i * n : (i + 1) * n, i * n : (i + 1) * n], -s * np.eye(n))
        assert np.array_equal(rq.b1[i * n : (i + 1) * n, (i - 1) * n : i * n], s * np.eye(n))


def _p3_solves(alpha):
    p = MatrixPoly([alpha * c for c in fx.p3().coeffs])
    e = np.ones(5)
    return p, solve_unilateral(p), shift_accelerated_solve(p, 1.0, e, e / 5)


@pytest.mark.parametrize("alpha", [1e-150, 1e160, 1e300])
def test_reblock_scales_with_its_input(alpha, p3):
    # the embedding of alpha A(z) is alpha times that of A(z), and stays
    # finite where a Frobenius norm of the coefficients would overflow
    rq, rq_alpha = reblock(p3), reblock(MatrixPoly([alpha * c for c in p3.coeffs]))
    for b, b_alpha in zip((rq.bm1, rq.b0, rq.b1), (rq_alpha.bm1, rq_alpha.b0, rq_alpha.b1)):
        assert np.isfinite(b_alpha).all()
        assert np.abs(b_alpha - alpha * b).max() <= 1e-15 * alpha * np.abs(b).max()


@pytest.mark.parametrize(
    "alpha", [1e-20, 1e-12, 1e8, 1e20, 1e-300, 1e-160, 1e160, 1e300, 2.0**1023 * (2.2 / 1.12)]
)
def test_scaled_p3_solves_like_p3(alpha):
    # alpha A(z) has the minimal solvent of A(z): the step counts, sigma and
    # G do not depend on alpha, and a perturbed solvent fails at every alpha;
    # from 1e154 on, cyclic reduction's norms need its power-of-two prescale,
    # and at the last alpha the row sum s of reblock is beyond double range
    # (every entry is finite), so s is capped at the largest double
    _, plain_1, shifted_1 = _p3_solves(1.0)
    p, plain, shifted = _p3_solves(alpha)
    assert (plain.iterations, shifted.iterations) == (12, 5)
    for r, r_1 in ((plain, plain_1), (shifted, shifted_1)):
        assert abs(r.sigma - r_1.sigma) <= 1e-12 * r_1.sigma
        assert np.linalg.norm(r.g - r_1.g) <= 1e-12 * np.linalg.norm(r_1.g)
        assert r.residual <= 1e-15
    off = plain.g + 1e-6 * np.linalg.norm(plain.g) * np.eye(5)
    assert equation_residual(p, off) > 1e-10


@pytest.mark.parametrize(
    "fail_on, message",
    [("original", "solvent residual nan exceeds"),
     ("shifted", "solvent residual nan exceeds"),
     ("recovered", "recovered solvent fails the original equation: residual nan")],
)
def test_nan_solvent_residual_fails_the_solve_gates(monkeypatch, fail_on, message):
    # the shifted equation is solved by solve_unilateral, so it fails that gate
    import mpshift.equations

    p = fx.p3()
    e = np.ones(5)

    def residual(q, g):  # the shifted equation is not p
        nan = (q is p) == (fail_on != "shifted")
        return math.nan if nan else equation_residual(q, g)

    monkeypatch.setattr(mpshift.equations, "equation_residual", residual)
    with pytest.raises(NoConvergence, match=message) as caught:
        if fail_on == "original":
            solve_unilateral(p)
        else:
            shift_accelerated_solve(p, 1.0, e, e / 5)
    recovered = fail_on == "recovered"
    gate = "shift_accelerated_solve.recovered" if recovered else "solve_unilateral.residual"
    assert caught.value.name == gate


@pytest.mark.parametrize("hi", [0, 1])
def test_shift_accelerated_solve_rejects_laurent_input_at_every_degree(hi):
    # a planted pair passes the shift's gate; the shifted Laurent equation is
    # then refused by solve_unilateral, at degree 1 as at degree 2
    rng = np.random.default_rng(503)
    lam, u = 0.5, unit_vector(crandn(rng, 3))
    p = plant_right(rand_laurent(rng, 3, -1, hi), lam, u)
    with pytest.raises(DimensionMismatch) as caught:
        shift_accelerated_solve(p, lam, u, mu=0.1)
    assert str(caught.value) == "solve_unilateral expects a matrix polynomial"


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


def test_reblock_pads_degree_one():
    a0, a1 = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]])
    rq = reblock(MatrixPoly([a0, a1]))
    assert np.array_equal(rq.bm1, a0) and np.array_equal(rq.b0, a1)
    assert np.array_equal(rq.b1, np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch, match="reblock needs degree >= 1"):
        reblock(MatrixPoly([np.eye(2)]))


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
    assert rep.iterations == 0
    assert np.allclose(rep.g, m, atol=1e-14)


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_pencil_solve_stops_cr_at_step_zero(is_complex):
    # a pencil embeds as (A_0, A_1, 0): cyclic reduction stops at step 0 with
    # Hhat = A_1, and every eigenvalue beyond the nth is at infinity (sigma = 0)
    rng = np.random.default_rng(61)
    a0, a1 = (crandn(rng, 6, 6) if is_complex else rng.standard_normal((6, 6)) for _ in range(2))
    want = -np.linalg.solve(a1, a0)
    p = MatrixPoly([a0, a1])
    cr = solve_unilateral(p)
    assert cr.iterations == 0 and cr.sigma == 0.0
    assert np.linalg.norm(cr.g - want) <= 1e-14 * np.linalg.norm(want)
    eig = solve_unilateral(p, method="eigen")
    assert eig.sigma == 0.0
    # the eigen solve's G carries the condition of its eigenvector basis
    assert np.linalg.norm(eig.g - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("kwargs", [dict(tol=math.nan), dict(tol=-1.0), dict(maxit=0)],
                         ids=["tol_nan", "tol_negative", "maxit_zero"])
def test_pencil_solve_checks_tol_and_maxit(kwargs):
    p = MatrixPoly([-0.5 * np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="must be"):
        solve_unilateral(p, **kwargs)
    with pytest.raises(ValueError, match="must be"):
        shift_accelerated_solve(p, 0.5, [1.0, 0.0], **kwargs)


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


def _repeated_half(kind):
    """An equation whose minimal solvent G has the eigenvalue 0.5 twice, and G."""
    if kind == "pencil":  # 0.5 and 0.5 (1 + 1e-13), closer than any distinctness test
        g = np.diag([0.5, 0.5 * (1 + 1e-13), 3.0])
        return MatrixPoly([-g, np.eye(3)]), g
    # (zI - 3I)(zI - G), G diagonalizable in a random basis
    t = np.random.default_rng(0).standard_normal((3, 3))
    g = t @ np.diag([0.5, 0.5, 0.2]) @ np.linalg.inv(t)
    return MatrixPoly([3 * g, -(g + 3 * np.eye(3)), np.eye(3)]), g


@pytest.mark.parametrize("kind", ["pencil", "quadratic"])
def test_solve_eigen_takes_a_repeated_eigenvalue(kind):
    p, g = _repeated_half(kind)
    for method in ("eigen", "cr"):
        assert np.abs(solve_unilateral(p, method=method).g - g).max() <= 1e-14


def test_solve_eigen_rejects_identical_vectors():
    # A(0.5) = 0: both copies of 0.5 take the same null vector; the near-Jordan
    # basis fails the same gate in test_gates
    with pytest.raises(IllConditionedEigenbasis) as caught:
        solve_unilateral(MatrixPoly([-0.5 * np.eye(2), np.eye(2)]), method="eigen")
    assert caught.value.name == "solve_eigen.rcond"


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


# --- sigma read off cyclic reduction ---

def _predicted_steps(sigma, tol=1e-14):
    return math.ceil(math.log2(math.log(tol) / math.log(sigma)))


def test_cr_sigma_matches_convergence_ratio_p3(p3):
    rep = solve_unilateral(p3)
    assert abs(rep.sigma - convergence_ratio(p3)) <= 1e-10 * rep.sigma
    e = np.ones(5)
    fast = shift_accelerated_solve(p3, 1.0, e, e / 5, 0.0)
    ref = convergence_ratio(right_shift_poly(p3, ShiftSpec(1.0, 0.0, e, e / 5)))
    assert abs(fast.sigma - ref) <= 1e-10 * ref


@pytest.mark.parametrize("n", [4, 9, 14])
@pytest.mark.parametrize("drift", [5e-4, 0.05])
def test_cr_sigma_matches_convergence_ratio_qbd(n, drift):
    p = MatrixPoly(critical_qbd(n, n, drift=drift))
    rep = solve_unilateral(p)
    ref = convergence_ratio(p)
    assert abs(rep.sigma - ref) <= 1e-10 * ref


def test_cr_sigma_matches_convergence_ratio_through_reblock():
    rng = np.random.default_rng(71)
    n = 4
    coeffs = [0.5 * rng.standard_normal((n, n)) for _ in range(4)]
    coeffs[1] += 4 * np.eye(n)
    p = MatrixPoly(coeffs)
    assert reblock(p).b0.shape == (2 * n, 2 * n)
    rep = solve_unilateral(p)
    ref = convergence_ratio(p)
    assert abs(rep.sigma - ref) <= 1e-10 * ref


def test_sigma_predicts_cr_steps(p1, p3):
    plain = solve_unilateral(p1)
    # p1's minimal solvent holds 1/3 and 1/2, and its defective eigenvalue 1
    # comes next: sigma = 1/2, though all four eigenvalues lie in the closed
    # unit disk and convergence_ratio's split cuts through 1 -+ 1e-8
    assert abs(plain.sigma - 0.5) <= 1e-6
    fast = shift_accelerated_solve(p3, 1.0, np.ones(5), np.ones(5) / 5, 0.0)
    for rep in (plain, solve_unilateral(p3), fast):
        assert _predicted_steps(rep.sigma) == rep.iterations


def test_sigma_finite_at_n50():
    n = 50
    rep = solve_unilateral(MatrixPoly(critical_qbd(5, n, drift=5e-4)))
    assert 0 < rep.sigma < 1
    assert abs(_predicted_steps(rep.sigma) - rep.iterations) <= 1


@pytest.mark.parametrize("method", ["cr", "eigen"])
def test_degree_one_sigma_is_zero(method):
    p = MatrixPoly([-np.array([[0.5, 0.2], [0.1, 0.3]]), np.eye(2)])
    rep = solve_unilateral(p, method=method)
    assert rep.sigma == 0.0
    assert np.allclose(rep.g, [[0.5, 0.2], [0.1, 0.3]], atol=1e-14)


def test_eigensolves_per_solve(p3, monkeypatch):
    # method "eigen" runs one eigensolve; cyclic reduction runs none
    from mpshift import equations

    calls = []
    polyeig = equations.polyeig
    monkeypatch.setattr(equations, "polyeig", lambda *a, **k: calls.append(a) or polyeig(*a, **k))
    rep = solve_unilateral(p3, method="eigen")
    assert len(calls) == 1
    assert abs(rep.sigma - solve_unilateral(p3).sigma) <= 1e-10 * rep.sigma
    shift_accelerated_solve(p3, 1.0, np.ones(5), np.ones(5) / 5, 0.0)
    assert len(calls) == 1
