"""Cyclic reduction, inverse coefficients, and factorization updates under shifts."""

import cmath
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from mpshift import (
    LaurentPoly,
    MatrixPoly,
    ReversedFactorization,
    ShiftSpec,
    cli,
    cr_quadratic,
    double_shift_laurent,
    double_shift_factorization,
    evaluate,
    inverse_coefficients,
    poly_factorization,
    polyeig,
    reblock,
    reversed_factorization,
    right_shift_laurent,
    right_shift_poly,
    shift_accelerated_solve,
    shifted_factorization_both,
    shifted_factorization_right,
    solve_unilateral,
    spectral_radius,
    unit_vector,
    write_poly,
)
from mpshift.errors import (
    DegenerateShift,
    DimensionMismatch,
    ModulusConstraintViolated,
    NoConvergence,
    NotAnEigenpair,
    NotASolvent,
    ShiftOutsideDisk,
    SingularH0,
    SingularPivot,
    SplittingFailure,
    ZeroLambda,
)
from mpshift.core import RESIDUAL_TOL, _pow2_scaled, _times, rcond
from mpshift.equations import ReblockedQuadratic
from mpshift.fixtures import p3

from mpshift import equations, factorizations

from conftest import critical_qbd, crandn, qbd_quadratic

GOLDEN = 2.0 - math.sqrt(3.0)  # minimal root of x^2 - 4x + 1


def scalar_fixture():
    return np.array([[-0.25]]), np.array([[1.0]]), np.array([[-0.25]])


def quad_value(am1, a0, a1, z):
    return am1 / z + a0 + z * a1


# --- cyclic reduction ---

def test_cr_scalar_closed_form():
    am1, a0, a1 = scalar_fixture()
    f = cr_quadratic(am1, a0, a1)
    assert abs(f.gplus[0, 0] - GOLDEN) <= 1e-14
    assert abs(f.rplus[0, 0] - GOLDEN) <= 1e-14
    assert abs(f.kplus[0, 0] - (1.0 - GOLDEN / 4.0)) <= 1e-14


def test_cr_trivial_identity_zero_iterations():
    z = np.zeros((3, 3))
    f = cr_quadratic(z, np.eye(3), z)
    assert f.iterations == 0
    assert np.array_equal(f.gplus, z.astype(complex))
    assert np.array_equal(f.rplus, z.astype(complex))
    assert np.array_equal(f.kplus, np.eye(3, dtype=complex))


def test_cr_seeded_qbd_residuals():
    rng = np.random.default_rng(211)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    f = cr_quadratic(am1, a0, a1)
    assert f.iterations <= 12
    scale = sum(np.linalg.norm(x) for x in (am1, a0, a1))
    assert np.linalg.norm(am1 + a0 @ f.gplus + a1 @ f.gplus @ f.gplus) <= 1e-10 * scale
    assert (
        np.linalg.norm(f.rplus @ f.rplus @ am1 + f.rplus @ a0 + a1) <= 1e-10 * scale
    )
    assert f.rho_g < 1 and f.rho_r < 1
    assert f.residual <= 1e-10


def test_cr_iteration_count_tracks_sigma():
    rng = np.random.default_rng(223)
    tol = 1e-14
    for _ in range(4):
        am1, a0, a1 = qbd_quadratic(rng, 3)
        # sigma from the quadratic's eigenvalues (independent eigensolver route)
        vals = polyeig(MatrixPoly([am1, a0, a1])).values()
        mods = np.abs(vals)
        sigma = mods[mods <= 1].max() / mods[mods > 1].min()
        predicted = math.ceil(math.log2(math.log(tol) / math.log(sigma)))
        f = cr_quadratic(am1, a0, a1, tol=tol)
        assert abs(f.iterations - predicted) <= 2


def _reference_cr(am1, a0, a1, tol=1e-14, maxit=64, strict_radius=True):
    """Cyclic reduction as first written: a 2n-column solve per step, block
    norms one by one, and the residual gates in product form (the 8-point
    factorization residual included).  Returns G+, R+, K+, steps, residual."""
    def inorm(x):
        return np.linalg.norm(x, np.inf)

    n = a0.shape[0]
    denom = max(inorm(am1) + inorm(a0) + inorm(a1), 1e-300)
    scale = np.linalg.norm(am1) + np.linalg.norm(a0) + np.linalg.norm(a1)
    bm1, b0, b1, hhat = am1.copy(), a0.copy(), a1.copy(), a0.copy()
    k = 0
    while not min(inorm(bm1), inorm(b1)) <= tol * denom:
        assert k < maxit
        xy = np.linalg.solve(b0, np.hstack((bm1, b1)))
        x, y = xy[:, :n], xy[:, n:]
        bm1, b1, b0, hhat = -bm1 @ x, -b1 @ y, b0 - bm1 @ y - b1 @ x, hhat - b1 @ x
        k += 1
    gplus = -np.linalg.solve(hhat, am1)
    rplus = -np.linalg.solve(hhat.T, a1.T).T
    kplus = a0 + a1 @ gplus
    assert np.linalg.norm(am1 + a0 @ gplus + a1 @ gplus @ gplus) <= 1e-10 * scale
    assert np.linalg.norm(rplus @ rplus @ am1 + rplus @ a0 + a1) <= 1e-10 * scale
    assert np.linalg.norm(a0 - (kplus + rplus @ kplus @ gplus)) <= 1e-10 * scale
    if strict_radius:
        assert max(spectral_radius(gplus), spectral_radius(rplus)) < 1 - 1e-8
    residual = _residual_at_points(am1, a0, a1, gplus, rplus, kplus)
    assert residual <= 1e-10
    return gplus, rplus, kplus, k, residual


def _cr_case(name):
    """(A_-1, A_0, A_1) and strict_radius: reblocked p3, or a QBD of size n."""
    if name == "p3":
        rq = reblock(p3())
        return (rq.bm1, rq.b0, rq.b1), False
    return critical_qbd(5, int(name[3:]), drift=5e-3, scale=0.99), True


@pytest.mark.parametrize("alpha", [1e-300, 1e-160, 1e160, 1e300])
def test_cr_does_not_depend_on_the_coefficient_scale(alpha):
    # unscaled Frobenius norms overflow from 1e154 on (a RuntimeWarning, an
    # error here) and read 0.0 below 1e-154, where a residual gate passes
    # anything; the power-of-two prescale keeps them in range
    coeffs = critical_qbd(3, 20, 5e-3, 0.99)
    f_1 = cr_quadratic(*coeffs)
    f = cr_quadratic(*(alpha * c for c in coeffs))
    assert f.iterations == f_1.iterations == 8
    assert _rel(f.gplus, f_1.gplus) <= 1e-12 and _rel(f.rplus, f_1.rplus) <= 1e-12
    assert _rel(f.kplus / alpha, f_1.kplus) <= 1e-12
    assert 0.0 < f.residual <= 1e-15


@pytest.mark.parametrize("exponent", [-900, -70, 3, 600, 1000])
def test_cr_scales_exactly_by_powers_of_two(exponent):
    # the prescale divides 2^k A by 2^k more than A, so CR runs on the same
    # bits: G+, R+, the steps and the residual are equal, and K+ is 2^k K+
    coeffs = critical_qbd(3, 20, 5e-3, 0.99)
    f_1 = cr_quadratic(*coeffs)
    f = cr_quadratic(*(np.ldexp(c, exponent) for c in coeffs))
    assert (f.iterations, f.residual) == (f_1.iterations, f_1.residual)
    assert np.array_equal(f.gplus, f_1.gplus) and np.array_equal(f.rplus, f_1.rplus)
    assert np.array_equal(f.kplus, f_1.kplus * 2.0**exponent)


@pytest.mark.parametrize("rotate", [False, True], ids=["real", "rotated"])
@pytest.mark.parametrize("case", ["p3", "qbd1", "qbd8", "qbd50", "qbd200"])
def test_cr_matches_the_reference_recurrences(case, rotate):
    coeffs, strict = _cr_case(case)
    if rotate:  # complex data: the same G+ and R+, and K+ rotated with A
        coeffs = tuple(cmath.exp(0.7j) * c for c in coeffs)
    g, r, k, steps, residual = _reference_cr(*coeffs, strict_radius=strict)
    f = cr_quadratic(*coeffs, strict_radius=strict)
    assert f.iterations == steps
    assert _rel(f.gplus, g) <= 1e-12 and _rel(f.rplus, r) <= 1e-12 and _rel(f.kplus, k) <= 1e-12
    assert abs(f.residual - residual) <= 1e-14


def test_cr_singular_pivot():
    # B0 = 0 makes the first pivot singular
    with pytest.raises(SingularPivot):
        cr_quadratic(np.eye(2), np.zeros((2, 2)), np.eye(2))


def test_cr_overflow_raises_a_typed_error(monkeypatch):
    # a negative tol would never stop CR (on p3 the blocks overflow); it is
    # rejected before the first step
    rq = reblock(p3())
    with pytest.raises(ValueError, match="tol must be finite and at least 0, got -1"):
        cr_quadratic(rq.bm1, rq.b0, rq.b1, tol=-1, strict_radius=False)
    with pytest.raises(ValueError, match="tol must be finite and at least 0, got -1"):
        solve_unilateral(p3(), tol=-1)
    # non-finite blocks, here from a NaN coefficient, end the run naming the
    # step, and solve_unilateral passes that error on as it is
    bm1 = rq.bm1.copy()
    bm1[0, 0] = math.nan
    with pytest.raises(NoConvergence, match="not finite at step 0") as info:
        cr_quadratic(bm1, rq.b0, rq.b1, strict_radius=False)
    assert info.value.step == 0
    monkeypatch.setattr(equations, "reblock", lambda p: ReblockedQuadratic(bm1, rq.b0, rq.b1))
    with pytest.raises(NoConvergence, match="not finite at step 0") as info:
        solve_unilateral(p3())
    assert type(info.value) is NoConvergence and info.value.step == 0


@pytest.mark.parametrize("drift, steps", [(5e-2, 8), (5e-4, 14)])
def test_cr_strict_radius_rejects_a_critical_qbd(drift, steps):
    # z = 1 is an eigenvalue of these QBDs, so rho(G+) = 1: no canonical
    # factorization, but the minimal solvent without the radius gate
    coeffs = critical_qbd(3, 20, drift)
    with pytest.raises(NoConvergence, match="not contractive"):
        cr_quadratic(*coeffs)
    assert cr_quadratic(*coeffs, strict_radius=False).iterations == steps


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": math.nan}, "tol must be finite and at least 0, got nan"),
        ({"tol": math.inf}, "tol must be finite and at least 0, got inf"),
        ({"tol": -1e-300}, "tol must be finite and at least 0"),
        ({"maxit": 0}, "maxit must be at least 1, got 0"),
        ({"maxit": -3}, "maxit must be at least 1, got -3"),
    ],
)
def test_cr_rejects_bad_tol_and_maxit(kwargs, message):
    rq = reblock(p3())
    e = np.ones(5)
    calls = [
        lambda: cr_quadratic(rq.bm1, rq.b0, rq.b1, strict_radius=False, **kwargs),
        lambda: solve_unilateral(p3(), **kwargs),
        lambda: shift_accelerated_solve(p3(), 1.0, e, e / 5, **kwargs),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_cr_step_limit_is_still_a_splitting_failure():
    # the step limit and the residual gates keep their SplittingFailure
    with pytest.raises(SplittingFailure, match="did not converge in 3 iterations"):
        solve_unilateral(p3(), maxit=3)
    assert solve_unilateral(p3(), tol=0.0).iterations > 12


def test_cr_nan_input_raises_at_step_zero():
    am1, a0, a1 = scalar_fixture()
    with pytest.raises(NoConvergence, match="not finite at step 0"):
        cr_quadratic(np.array([[math.nan]]), a0, a1)


def test_nan_factorization_residual_fails_every_gate(monkeypatch):
    am1, a0, a1 = qbd_quadratic(np.random.default_rng(71), 4)
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    lam, u = _inside_eigenpair(f)
    monkeypatch.setattr(factorizations, "_quad_fact_residual", lambda *_: math.nan)
    with pytest.raises(NoConvergence, match="factorization residual nan"):
        cr_quadratic(am1, a0, a1)
    with pytest.raises(SingularH0, match="residual nan"):
        reversed_factorization(am1, a0, a1, f)
    with pytest.raises(NoConvergence, match="nan"):
        shifted_factorization_both(am1, a0, a1, f, rf, lam, 0.0, u)


def test_an_early_stopped_limit_fails_the_one_residual_gate():
    # tol = 1e-2 stops CR before its limit meets the factorization identity;
    # the gate that reads the factorization residual and R+'s equation
    # residual catches it, in cr_quadratic and in the solve that reblocks p3
    pattern = r"residual checks \(factorization residual (\S+), R\+ residual (\S+)\)"
    with pytest.raises(NoConvergence, match=pattern) as caught:
        cr_quadratic(*critical_qbd(3, 20, 5e-3, 0.99), tol=1e-2)
    fact_res, res_r = map(float, re.search(pattern, str(caught.value)).groups())
    assert fact_res > 1e-10 and res_r > 1e-10
    with pytest.raises(SplittingFailure, match=pattern):
        solve_unilateral(p3(), tol=1e-2)


def test_nan_h0_fails_the_condition_gate():
    am1, a0, a1 = qbd_quadratic(np.random.default_rng(73), 4)
    f = cr_quadratic(am1, a0, a1)
    b0, hhat, step = f.limits
    nan_limit = replace(f, limits=(np.full_like(b0, math.nan), hhat, step))
    with pytest.raises(SingularH0, match="reciprocal condition of H_0 is nan"):
        reversed_factorization(am1, a0, a1, nan_limit)


def test_cr_no_unit_circle_gap_detected():
    # z^-1 + z : eigenvalues at +-1 and +-i... det(1 + z^2) roots on the circle
    am1 = np.eye(2)
    a0 = np.zeros((2, 2))
    a1 = np.eye(2)
    with pytest.raises((NoConvergence, SingularPivot)):
        cr_quadratic(am1, a0, a1)


# --- inverse coefficients ---

def test_inverse_coefficients_scalar_h0():
    f = cr_quadratic(*scalar_fixture())
    h = inverse_coefficients(f, 0)
    assert abs(h[0][0, 0] - 2.0 / math.sqrt(3.0)) <= 1e-14


def test_inverse_coefficients_identity():
    z = np.zeros((2, 2))
    f = cr_quadratic(z, np.eye(2), z)
    hs = inverse_coefficients(f, 2)
    assert np.array_equal(hs[2], np.eye(2, dtype=complex))
    for k in (0, 1, 3, 4):
        assert np.array_equal(hs[k], z.astype(complex))


def test_inverse_coefficients_match_pointwise_inverse():
    rng = np.random.default_rng(227)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    f = cr_quadratic(am1, a0, a1)
    rho = max(f.rho_g, f.rho_r)
    m = max(4, math.ceil(math.log(1e-10) / math.log(rho)))
    hs = inverse_coefficients(f, m)
    for k in range(8):
        z = np.exp(2j * np.pi * k / 8)
        approx = sum(z ** (i - m) * hs[i] for i in range(2 * m + 1))
        exact = np.linalg.inv(quad_value(am1, a0, a1, z))
        assert np.linalg.norm(approx - exact) <= 1e-8 * np.linalg.norm(exact)


# --- H_0 and the reversed factorization from cyclic reduction's limits ---

def _stein_residual(f, h0):
    """||H_0 - G+ H_0 R+ - K+^{-1}|| / ||H_0||: H_0 is the fixed point of that map."""
    (h0, k_inv), _, _ = _pow2_scaled([h0, np.linalg.inv(f.kplus)])
    return np.linalg.norm(h0 - f.gplus @ h0 @ f.rplus - k_inv) / np.linalg.norm(h0)


def test_reversed_factorization_near_critical_zero_drift():
    # rho(G+) = rho(R+) = 0.99942: the H_0 series needs about 3e4 terms to
    # reach its 1e-16 tail
    am1, a0, a1 = critical_qbd(0, 8, drift=0.0, scale=1 - 1e-7)
    f = cr_quadratic(am1, a0, a1)
    assert f.iterations == 16
    assert 0.999 < max(f.rho_g, f.rho_r) < 1 - 1e-8
    rf = reversed_factorization(am1, a0, a1, f)
    assert rf.residual <= 1e-10
    assert _stein_residual(f, rf.w) <= 1e-12


README_QUAD = ([[0.3, 0.1], [0.1, 0.3]], [[-0.9, 0.1], [0.1, -0.9]], [[0.2, 0.1], [0.1, 0.2]])
RELATION_CASES = {
    "qbd4": lambda: qbd_quadratic(np.random.default_rng(11), 4),
    "qbd20": lambda: qbd_quadratic(np.random.default_rng(13), 20),
    "critical50": lambda: critical_qbd(3, 50, 5e-3, 0.99),
    "drift0": lambda: critical_qbd(0, 8, drift=0.0, scale=1 - 1e-7),
    "complex8": lambda: [cmath.exp(0.7j) * b for b in critical_qbd(4, 8, 5e-3, 0.99)],
    "readme1e300": lambda: [1e300 * np.array(b) for b in README_QUAD],
}


def _rel_scaled(x, y):
    """||x - y|| / ||y|| on both divided by one power of two, so no norm under- or overflows."""
    (x, y), _, _ = _pow2_scaled([x, y])
    return np.linalg.norm(x - y) / np.linalg.norm(y)


@pytest.mark.parametrize("case", RELATION_CASES, ids=list(RELATION_CASES))
def test_reversed_factors_meet_the_paper_relations(case):
    # the code takes G-, R- and W from cyclic reduction's limits, not through these:
    # the similarity G- = W R+ W^-1, R- = W^-1 G+ W, and the Stein equation of H_0
    blocks = RELATION_CASES[case]()
    f = cr_quadratic(*blocks)
    rf = reversed_factorization(*blocks, f)
    w = rf.w
    assert _rel_scaled(rf.gminus @ w, w @ f.rplus) <= 1e-12
    assert _rel_scaled(w @ rf.rminus, f.gplus @ w) <= 1e-12
    assert _stein_residual(f, w) <= 1e-12
    if case == "drift0":
        assert f.iterations == 16


def _near_singular_h0(eps, seed):
    """n = 6 blocks whose H_0 = I + G R is singular at eps = 0: a 2x2 block with
    G = e1 e2^T, R = (eps - 1) e2 e1^T and K = I (H_0 = diag(eps, 1) there), beside a
    random contractive 4x4 block, under a random orthogonal similarity."""
    rng = np.random.default_rng(seed)
    g, r, k = np.zeros((6, 6)), np.zeros((6, 6)), np.eye(6)
    g[0, 1], r[1, 0] = 1.0, eps - 1.0

    def contraction():
        q1, q2 = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
        return q1 @ np.diag(rng.uniform(0.2, 0.9, 4)) @ q2

    g[2:, 2:], r[2:, 2:] = 0.5 * contraction(), contraction()
    k[2:, 2:] += 0.3 * rng.standard_normal((4, 4))
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    return tuple(q.T @ a @ q for a in (-k @ g, k + r @ k @ g, -r @ k))


def _similar_factors(am1, a0, a1, gplus, rplus, w):
    """Reference reversed factors by similarity with W (H_0, or W~ after a shift):
    G- = W R+ W^-1, R- = W^-1 G+ W and K- = A_0 + A_-1 G- (= A_0 + R- A_1).  None where
    rcond(W) < 1e-12 or the two K- disagree by more than 1e-10 relative; the caller reads
    the factorization residual.  W and the A_i are prescaled apart."""
    (w,), w_step, _ = _pow2_scaled([w])
    if not rcond(w) >= 1e-12:
        return None
    gminus = np.linalg.solve(w.T, (w @ rplus).T).T
    rminus = np.linalg.solve(w, gplus @ w)
    (a1, a0, am1), step, scale = _pow2_scaled((a1, a0, am1))
    k_a = a0 + am1 @ gminus
    if not np.linalg.norm(k_a - (a0 + rminus @ a1)) / scale <= RESIDUAL_TOL:
        return None
    fact_res = factorizations._factor_residual(a1, a0, am1, gminus, rminus, k_a)
    return ReversedFactorization(gminus, rminus, _times(k_a, 1 / step), _times(w, 1 / w_step),
                                 fact_res)


def _accepted(rf):
    return rf if rf is not None and rf.residual <= 1e-10 else None


def _similarity_route(blocks, f):
    """The reversed factorization by the H_0 series and :func:`_similar_factors`, for
    reference: H_0 = sum_j G+^j K+^-1 R+^j by doubling, under the same 1e-10 factorization
    residual.  Whether it accepts."""
    g, r = f.gplus, f.rplus
    h = np.linalg.inv(f.kplus)
    for _ in range(64):
        term = g @ h @ r
        h, g, r = h + term, g @ g, r @ r
        if np.linalg.norm(term) <= 1e-16 * np.linalg.norm(h):
            break
    return _accepted(_similar_factors(*blocks, f.gplus, f.rplus, h)) is not None


def _shifted_by_similarity(blocks, f, rf, lam, mu, u):
    """Reference reversed factors of a right shift lam -> mu: :func:`_similar_factors` on
    G~+ = G+ + (mu-lam) Q and W~ = W + (mu-lam) Q W (I - mu R+)^-1 R+, or None where it
    rejects them."""
    spec = ShiftSpec(lam, mu, u)
    shifted = right_shift_laurent(LaurentPoly(-1, blocks), spec)
    resolvent_r = np.linalg.solve(np.eye(len(u)) - mu * f.rplus, f.rplus)
    w = rf.w + (mu - lam) * spec.q @ rf.w @ resolvent_r
    return _accepted(_similar_factors(*shifted.coeffs, f.gplus + (mu - lam) * spec.q, f.rplus, w))


def _largest_inner(f, count, floor=0.0):
    """The ``count`` largest-modulus eigenpairs of G+ with |lambda| >= ``floor``."""
    vals, vecs = np.linalg.eig(f.gplus)
    order = [k for k in np.argsort(-np.abs(vals), kind="stable") if abs(vals[k]) >= floor]
    return [(complex(vals[k]), vecs[:, k]) for k in order[:count]]


def test_a_singular_h0_is_still_caught():
    # CR itself stops short of a singular H_0; just above it the reversed
    # factorization fails its residual, whichever route computes it
    with pytest.raises(NoConvergence):
        cr_quadratic(*_near_singular_h0(1e-9, 0))
    for eps in (1e-7, 1e-5):
        for seed in range(3):
            blocks = _near_singular_h0(eps, seed)
            f = cr_quadratic(*blocks)
            assert not _similarity_route(blocks, f)
            with pytest.raises(SingularH0, match="reversed factorization fails its residual"):
                reversed_factorization(*blocks, f)


def test_the_limits_route_accepts_no_fewer_near_a_singular_h0():
    # at the edge, eps in 1e-3..5e-3, some inputs pass and some fail: every
    # rejection is SingularH0, and the limits route accepts at least as many
    # as the similarity route it replaced
    accepted, reference = 0, 0
    for eps in (1e-3, 2e-3, 3e-3, 5e-3):
        for seed in range(60):
            blocks = _near_singular_h0(eps, seed)
            f = cr_quadratic(*blocks)
            reference += _similarity_route(blocks, f)
            try:
                rf = reversed_factorization(*blocks, f)
            except SingularH0:
                continue
            assert rf.residual <= 1e-10
            accepted += 1
    assert 0 < reference <= accepted < 240


def test_reversed_factorization_reads_no_series_and_no_similarity():
    assert not hasattr(factorizations, "_h0") and not hasattr(factorizations, "H0_MAXSTEPS")
    assert not hasattr(factorizations, "_similar_factors")
    am1, a0, a1 = qbd_quadratic(np.random.default_rng(11), 4)
    f = cr_quadratic(am1, a0, a1)
    assert reversed_factorization(am1, a0, a1, f).residual <= 1e-10
    inverse_coefficients(f, 1)


def test_reversed_factorization_of_a_shift_reads_its_limits():
    # the shifted factorization carries limits filled from W~ and K+, and both routes
    # of the library read them: its reversed factors and inverse_coefficients' H~_0
    blocks = qbd_quadratic(np.random.default_rng(269), 4)
    f = cr_quadratic(*blocks)
    rf = reversed_factorization(*blocks, f)
    lam, u = _inside_eigenpair(f)
    quad, rev = shifted_factorization_both(*blocks, f, rf, lam, 0.5 * lam, u)
    ref = _shifted_by_similarity(blocks, f, rf, lam, 0.5 * lam, u)
    for name in ("gminus", "rminus", "kminus", "w"):
        assert _rel(getattr(rev, name), getattr(ref, name)) <= 1e-12, name
    assert _rel(inverse_coefficients(quad, 0)[0], ref.w) <= 1e-12


def _agreement_inputs():
    rng = np.random.default_rng
    yield from (qbd_quadratic(rng(seed), 4) for seed in range(6))
    yield from (qbd_quadratic(rng(seed), 20) for seed in range(100, 106))
    yield from (critical_qbd(3, n, 5e-3, 0.99) for n in (8, 50))
    yield [cmath.exp(0.7j) * b for b in qbd_quadratic(rng(7), 6)]


def test_a_shift_agrees_with_the_similarity_route():
    # 15 inputs, their two largest eigenvalues of G+ each moved to 0 and to lambda/2
    cases = 0
    for case, blocks in enumerate(_agreement_inputs()):
        f = cr_quadratic(*blocks)
        rf = reversed_factorization(*blocks, f)
        for lam, u in _largest_inner(f, 2):
            for mu in (0.0, 0.5 * lam):
                _, rev = shifted_factorization_both(*blocks, f, rf, lam, mu, u)
                ref = _shifted_by_similarity(blocks, f, rf, lam, mu, u)
                for field in ("gminus", "rminus", "kminus", "w"):
                    err = _rel_scaled(getattr(rev, field), getattr(ref, field))
                    assert err <= 1e-13, (case, lam, mu, field, err)
                cases += 1
    assert cases == 60


def test_a_shift_near_a_singular_h0_accepts_no_fewer_than_the_similarity_route():
    # up to three eigenvalues of G+ (|lambda| >= 1e-3) each moved to 0 and to lambda/2, on
    # inputs whose own reversed factorization passes: every rejection is SingularH0, every
    # accepted shift meets the Stein equation of W~ and the similarity G~- W~ = W~ R+
    accepted = reference = total = 0
    for eps in (1e-3, 2e-3, 3e-3, 5e-3, 1e-2):
        for seed in range(60):
            blocks = _near_singular_h0(eps, seed)
            f = cr_quadratic(*blocks)
            try:
                rf = reversed_factorization(*blocks, f)
            except SingularH0:
                continue
            for lam, u in _largest_inner(f, 3, floor=1e-3):
                for mu in (0.0, 0.5 * lam):
                    total += 1
                    reference += _shifted_by_similarity(blocks, f, rf, lam, mu, u) is not None
                    try:
                        quad, rev = shifted_factorization_both(*blocks, f, rf, lam, mu, u)
                    except SingularH0:
                        continue
                    # ||G~-|| reaches 5e2 here: the similarity rounds on ||G~-|| ||W~||
                    g, w = rev.gminus, rev.w
                    gap = np.linalg.norm(g @ w - w @ quad.rplus)
                    assert _stein_residual(quad, w) <= 1e-12
                    assert gap <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(w)
                    accepted += 1
    assert 0 < reference <= accepted < total


@pytest.mark.parametrize("w", ["zero", "rank1", "nan"])
def test_a_singular_or_nan_wtilde_is_singular_h0(w):
    blocks = qbd_quadratic(np.random.default_rng(269), 4)
    f = cr_quadratic(*blocks)
    rf = reversed_factorization(*blocks, f)
    lam, u = _inside_eigenpair(f)
    bad = {"zero": np.zeros((4, 4)), "rank1": np.outer(u, u.conj()),
           "nan": np.full((4, 4), math.nan)}[w]
    with pytest.raises(SingularH0, match="reciprocal condition of H_0") as caught:
        shifted_factorization_both(*blocks, f, replace(rf, w=bad), lam, 0.0, u)
    assert caught.value.name == "reversed_factorization.rcond"


# --- real arithmetic for real data ---

def _rel(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


@pytest.mark.parametrize("n", [8, 50])
def test_real_and_complex_paths_agree(n, monkeypatch):
    # e^{i theta} A(z) keeps G+ and R+, scales K+ by e^{i theta} and H_0 by
    # e^{-i theta}, and its coefficients force the complex path
    radius_dtypes = []

    def radius(a):
        radius_dtypes.append(np.asarray(a).dtype)
        return spectral_radius(a)

    monkeypatch.setattr(factorizations, "spectral_radius", radius)
    am1, a0, a1 = critical_qbd(3, n, drift=5e-4, scale=0.99)
    c = cmath.exp(0.7j)
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    assert set(radius_dtypes) == {np.dtype(float)}
    radius_dtypes.clear()
    fc = cr_quadratic(c * am1, c * a0, c * a1)
    rfc = reversed_factorization(c * am1, c * a0, c * a1, fc)
    assert set(radius_dtypes) == {np.dtype(complex)}

    assert fc.iterations == f.iterations
    assert _rel(fc.gplus, f.gplus) <= 1e-12
    assert _rel(fc.rplus, f.rplus) <= 1e-12
    assert _rel(fc.kplus, c * f.kplus) <= 1e-12
    assert _rel(rfc.w, rf.w / c) <= 1e-12
    assert _rel(rfc.gminus, rf.gminus) <= 1e-12
    assert _rel(rfc.rminus, rf.rminus) <= 1e-12
    assert _rel(rfc.kminus, c * rf.kminus) <= 1e-12


def test_real_input_results_are_complex128():
    am1, a0, a1 = critical_qbd(4, 8, drift=5e-4, scale=0.99)
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    arrays = [f.gplus, f.rplus, f.kplus, rf.gminus, rf.rminus, rf.kminus, rf.w]
    arrays += inverse_coefficients(f, 2)
    assert all(a.dtype == np.complex128 for a in arrays)


def _residual_at_points(am1, a0, a1, g, r, k, m=8):
    """Max over the m-th roots of unity of the product-form factorization residual."""
    eye = np.eye(a0.shape[0])
    scale = np.linalg.norm(am1) + np.linalg.norm(a0) + np.linalg.norm(a1)
    return max(
        np.linalg.norm(am1 / z + a0 + z * a1 - (eye - z * r) @ k @ (eye - g / z)) / scale
        for z in np.exp(2j * np.pi * np.arange(m) / m)
    )


def _assert_bounds_samples(res, coeffs, factors):
    """res is at least the 8-point residual and at most sqrt(3) times it
    (Parseval), and at least the residual at 256 points of the circle."""
    eight = _residual_at_points(*coeffs, *factors)
    assert eight - 1e-15 <= res <= math.sqrt(3) * eight + 1e-15
    assert res >= _residual_at_points(*coeffs, *factors, m=256) - 1e-15


def _factored_qbd(seed, n, complex_data):
    """(A_-1, A_0, A_1) and the factors of a QBD quadratic, rotated into the
    complex plane when complex_data (real factors keep their real dtype)."""
    am1, a0, a1 = qbd_quadratic(np.random.default_rng(seed), n)
    if complex_data:
        c = cmath.exp(0.7j)
        am1, a0, a1 = c * am1, c * a0, c * a1
    f = cr_quadratic(am1, a0, a1)
    factors = (f.gplus, f.rplus, f.kplus)
    if not complex_data:
        factors = tuple(m.real for m in factors)
    return (am1, a0, a1), factors


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("n", [6, 50])
def test_coefficient_residual_matches_product_form(n, complex_data):
    # both forms are relative to the same scale; the coefficient sum bounds
    # the product form on the circle, at a converged and at a perturbed factorization
    coeffs, (g, r, k) = _factored_qbd(79, n, complex_data)
    at_rounding = factorizations._factor_residual(*coeffs, g, r, k)
    assert at_rounding <= 1e-14
    _assert_bounds_samples(at_rounding, coeffs, (g, r, k))
    off = g + 1e-3 * np.random.default_rng(83).standard_normal(g.shape)
    assert _residual_at_points(*coeffs, off, r, k) > 1e-4
    _assert_bounds_samples(factorizations._factor_residual(*coeffs, off, r, k), coeffs, (off, r, k))


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("which", range(3))
def test_coefficient_residual_rejects_each_perturbed_factor(which, complex_data):
    coeffs, factors = _factored_qbd(89, 8, complex_data)
    assert factorizations._factor_residual(*coeffs, *factors) <= 1e-10
    perturbed = list(factors)
    m = perturbed[which]
    perturbed[which] = m + 1e-8 * np.linalg.norm(m) * np.random.default_rng(97).standard_normal(m.shape)
    res = factorizations._factor_residual(*coeffs, *perturbed)
    assert res > 1e-10
    _assert_bounds_samples(res, coeffs, perturbed)


# --- reversed factorization ---

def test_reversed_scalar_commutes():
    f = cr_quadratic(*scalar_fixture())
    rf = reversed_factorization(*scalar_fixture(), f)
    assert abs(rf.gminus[0, 0] - f.rplus[0, 0]) <= 1e-14
    assert abs(rf.w[0, 0] - 2.0 / math.sqrt(3.0)) <= 1e-14


def test_reversed_similarity_preserves_spectrum():
    rng = np.random.default_rng(229)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    am1 = a1.T.copy()  # symmetric structure: A_-1 = A_1^T, A_0 symmetric
    a0 = (a0 + a0.T) / 2
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    assert abs(rf.rho_g - f.rho_r) <= 1e-10
    assert abs(rf.rho_r - f.rho_g) <= 1e-10


def test_reversed_factorization_rejects_a_perturbed_h0():
    # a perturbed B_0 limit is a perturbed H_0^{-1} (and K- moves with it); a
    # perturbed Hhat moves K- alone: the residual gate catches both
    am1, a0, a1 = qbd_quadratic(np.random.default_rng(101), 5)
    f = cr_quadratic(am1, a0, a1)
    b0, hhat, step = f.limits
    bump = 1e-6 * np.linalg.norm(b0) * np.random.default_rng(103).standard_normal(b0.shape)
    for limits in ((b0 + bump, hhat, step), (b0, hhat + bump, step)):
        with pytest.raises(SingularH0, match="reversed factorization fails its residual"):
            reversed_factorization(am1, a0, a1, replace(f, limits=limits))


def _count_radii(monkeypatch):
    calls = []

    def radius(a):
        calls.append(a)
        return spectral_radius(a)

    monkeypatch.setattr(factorizations, "spectral_radius", radius)
    return calls


def test_reversed_radii_are_computed_when_read(monkeypatch):
    am1, a0, a1 = qbd_quadratic(np.random.default_rng(107), 5)
    f = cr_quadratic(am1, a0, a1)
    calls = _count_radii(monkeypatch)
    rf = reversed_factorization(am1, a0, a1, f)
    assert calls == []
    # real data: the radius of the factor in its working (real) dtype
    assert rf.rho_g == spectral_radius(rf.gminus.real)
    assert len(calls) == 1
    assert rf.rho_g == rf.rho_g and len(calls) == 1
    assert rf.rho_r == spectral_radius(rf.rminus.real) and len(calls) == 2


def test_factor_quad_both_runs_two_eigensolves(tmp_path, monkeypatch, capsys):
    path = tmp_path / "qbd.mp.json"
    write_poly(LaurentPoly(-1, qbd_quadratic(np.random.default_rng(109), 6)), path)
    calls = _count_radii(monkeypatch)
    assert cli.main(["factor", str(path), "--quad", "--both", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 2


def test_reversed_seeded_residual():
    rng = np.random.default_rng(233)
    am1, a0, a1 = qbd_quadratic(rng, 5)
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    eye = np.eye(5)
    scale = sum(np.linalg.norm(x) for x in (am1, a0, a1))
    for k in range(8):
        z = np.exp(2j * np.pi * k / 8)
        lhs = quad_value(am1, a0, a1, 1.0 / z)
        rhs = (eye - z * rf.rminus) @ rf.kminus @ (eye - rf.gminus / z)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale
    # K- agrees both ways
    assert np.allclose(rf.kminus, a0 + rf.rminus @ a1, atol=1e-10 * scale)


# --- shifted factorizations ---

def _inside_eigenpair(f):
    return _largest_inner(f, 1)[0]


def test_shifted_right_quadratic_is_rank_one_update():
    rng = np.random.default_rng(239)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    f = cr_quadratic(am1, a0, a1)
    lam, u = _inside_eigenpair(f)
    mu = 0.4 * lam
    eye = np.eye(4, dtype=complex)
    factors = shifted_factorization_right(
        [(eye - 0 * eye) @ f.kplus, -f.rplus @ f.kplus], [eye, -f.gplus], lam, mu, u
    )
    spec = ShiftSpec(lam, mu, u)
    expected_l1 = -(f.gplus + (mu - lam) * spec.q)
    assert np.allclose(factors.lcoeffs[1], expected_l1, atol=1e-12)
    assert np.array_equal(factors.ucoeffs[0], f.kplus)


def test_shifted_right_identity():
    rng = np.random.default_rng(241)
    am1, a0, a1 = qbd_quadratic(rng, 3)
    f = cr_quadratic(am1, a0, a1)
    lam, u = _inside_eigenpair(f)
    eye = np.eye(3, dtype=complex)
    factors = shifted_factorization_right(
        [f.kplus, -f.rplus @ f.kplus], [eye, -f.gplus], lam, lam, u
    )
    assert np.array_equal(factors.lcoeffs[1], -f.gplus)


def test_shifted_right_agrees_with_fresh_cr():
    rng = np.random.default_rng(251)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    f = cr_quadratic(am1, a0, a1)
    lam, u = _inside_eigenpair(f)
    mu = -0.3 * lam
    eye = np.eye(4, dtype=complex)
    factors = shifted_factorization_right(
        [f.kplus, -f.rplus @ f.kplus], [eye, -f.gplus], lam, mu, u
    )
    gtilde = -factors.lcoeffs[1]
    spec = ShiftSpec(lam, mu, u)
    shifted = right_shift_laurent(LaurentPoly(-1, (am1, a0, a1)), spec)
    f2 = cr_quadratic(shifted.coeff(-1), shifted.coeff(0), shifted.coeff(1))
    assert np.linalg.norm(gtilde - f2.gplus) <= 1e-8


def test_shifted_right_degree_two_l_matches_closed_form():
    rng = np.random.default_rng(293)
    n, lam, mu = 3, 0.6 + 0.2j, -0.25j
    u = unit_vector(crandn(rng, n))
    eye = np.eye(n, dtype=complex)
    # L(w) = (I - w B1)(I - w B2) with B2 u = lam u: det L has its roots 1/eig(B)
    # outside the unit disk, one of them at 1/lam with L(1/lam) u = 0
    b1 = 0.1 * crandn(rng, n, n)
    m = 0.1 * crandn(rng, n, n)
    b2 = m - np.outer(m @ u - lam * u, u.conj())
    lcoeffs = [eye, -(b1 + b2), b1 @ b2]
    ucoeffs = [eye + 0.1 * crandn(rng, n, n), 0.1 * crandn(rng, n, n)]
    factors = shifted_factorization_right(ucoeffs, lcoeffs, lam, mu, u)
    q = ShiftSpec(lam, mu, u).q
    ell = len(lcoeffs) - 1
    assert np.array_equal(factors.lcoeffs[0], lcoeffs[0])
    # L~_i = L_i - (lam - mu) sum_{j>=1} lam^{-j} L_{j+i-1} Q
    for i in range(1, ell + 1):
        tail = sum(lam ** (-j) * lcoeffs[j + i - 1] for j in range(1, ell - i + 2))
        ref = lcoeffs[i] - (lam - mu) * tail @ q
        assert np.linalg.norm(factors.lcoeffs[i] - ref) <= 1e-14
    for a, b in zip(factors.ucoeffs, ucoeffs):
        assert np.array_equal(a, b)


def _rebalanced_gate_message(monkeypatch, s, error):
    """Run shifted_factorization_right on (s U, L / s), adding ``error`` to L~_1;
    the gate's message, or None when it passes."""
    am1, a0, a1 = qbd_quadratic(np.random.default_rng(239), 4)
    f = cr_quadratic(am1, a0, a1)
    lam, u = _inside_eigenpair(f)
    shift_l = factorizations._shift_l

    def bent(lcoeffs, spec):
        out = list(shift_l(lcoeffs, spec))
        out[1] = out[1] + error * np.linalg.norm(out[1]) * np.ones_like(out[1]) / 4
        return out

    eye = np.eye(4, dtype=complex)
    with monkeypatch.context() as patch:
        patch.setattr(factorizations, "_shift_l", bent)
        try:
            shifted_factorization_right(
                [s * f.kplus, -s * f.rplus @ f.kplus], [eye / s, -f.gplus / s], lam, 0.4 * lam, u
            )
        except NoConvergence as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("s", [1e-12, 1e-6, 1e6, 1e12])
def test_shifted_product_gate_does_not_depend_on_rebalancing(monkeypatch, s):
    # U -> s U, L -> L / s leaves A(z) = U(z) L(1/z) alone; a gate relative to
    # sum ||U_i|| + sum ||L_i|| read 1.3e-10 at s = 1e6 and passed at 1e-6 and 1e+-12
    want = _rebalanced_gate_message(monkeypatch, 1.0, 1e-3)
    assert want is not None and "disagree with the shifted function" in want
    assert _rebalanced_gate_message(monkeypatch, s, 1e-3) == want
    assert _rebalanced_gate_message(monkeypatch, s, 0.0) is None


def test_shifted_right_rejects_outside_disk():
    rng = np.random.default_rng(257)
    am1, a0, a1 = qbd_quadratic(rng, 3)
    f = cr_quadratic(am1, a0, a1)
    lam, u = _inside_eigenpair(f)
    eye = np.eye(3, dtype=complex)
    with pytest.raises(ShiftOutsideDisk):
        shifted_factorization_right(
            [f.kplus, -f.rplus @ f.kplus], [eye, -f.gplus], lam, 1.5, u
        )


def test_shifted_both_identity_returns_originals():
    rng = np.random.default_rng(263)
    am1, a0, a1 = qbd_quadratic(rng, 3)
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    lam, u = _inside_eigenpair(f)
    out_f, out_rf = shifted_factorization_both(am1, a0, a1, f, rf, lam, lam, u)
    assert out_f is f and out_rf is rf


def test_shifted_both_scalar_example():
    am1, a0, a1 = scalar_fixture()
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    lam = f.gplus[0, 0]  # = 2 - sqrt(3)
    cond = (lam - 0.0) * rf.gminus[0, 0]
    assert abs(cond - GOLDEN**2) <= 1e-12 and abs(cond - 1.0) > 0.9
    out_f, out_rf = shifted_factorization_both(
        am1, a0, a1, f, rf, lam, 0.0, np.array([1.0])
    )
    assert abs(out_f.gplus[0, 0]) <= 1e-14  # eigenvalue moved to zero
    assert out_f.residual <= 1e-10 and out_rf.residual <= 1e-10


def test_shifted_both_agrees_with_fresh_cr_and_reversal():
    rng = np.random.default_rng(269)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    lam, u = _inside_eigenpair(f)
    mu = 0.5 * lam
    spec = ShiftSpec(lam, mu, u)
    cond = (lam - mu) * (spec.dual.conj() @ rf.gminus @ spec.vector)
    assert abs(cond - 1.0) >= 1e-10
    out_f, out_rf = shifted_factorization_both(am1, a0, a1, f, rf, lam, mu, u)

    shifted = right_shift_laurent(LaurentPoly(-1, (am1, a0, a1)), spec)
    sm1, s0, s1 = shifted.coeff(-1), shifted.coeff(0), shifted.coeff(1)
    f2 = cr_quadratic(sm1, s0, s1)
    rf2 = reversed_factorization(sm1, s0, s1, f2)
    assert np.linalg.norm(out_f.gplus - f2.gplus) <= 1e-8
    assert np.linalg.norm(out_rf.gminus - rf2.gminus) <= 1e-8
    assert np.linalg.norm(out_rf.rminus - rf2.rminus) <= 1e-8
    assert np.linalg.norm(out_rf.kminus - rf2.kminus) <= 1e-8


def test_shifted_both_degenerate_condition_rejected():
    rng = np.random.default_rng(271)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    lam, u = _inside_eigenpair(f)
    mu = 0.5 * lam
    g = np.linalg.solve(np.eye(4) - mu * rf.gminus, rf.gminus @ u)
    # engineer v with v* u = 1 and the non-degeneracy value exactly 1
    basis = np.column_stack([u, g])
    v = np.linalg.pinv(basis).conj().T @ np.array([1.0, 1.0 / (lam - mu)])
    with pytest.raises(DegenerateShift):
        shifted_factorization_both(am1, a0, a1, f, rf, lam, mu, u, v)


def test_shifted_both_gates_the_eigenpair_through_the_shift():
    rng = np.random.default_rng(277)
    am1, a0, a1 = qbd_quadratic(rng, 4)
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    lam, u = _inside_eigenpair(f)
    with pytest.raises(NotAnEigenpair):
        shifted_factorization_both(am1, a0, a1, f, rf, lam, 0.0, u + 1e-3 * crandn(rng, 4))
    with pytest.raises(NotAnEigenpair):  # also when mu = lambda
        shifted_factorization_both(am1, a0, a1, f, rf, 0.9 * lam, 0.9 * lam, u)


# --- double-shift factorization ---

def _canonical_quadratic(seed):
    rng = np.random.default_rng(seed)
    am1, a0, a1 = qbd_quadratic(rng, 3)
    f = cr_quadratic(am1, a0, a1)
    ucoeffs = (f.kplus, -f.rplus @ f.kplus)
    lcoeffs = (np.eye(3, dtype=complex), -f.gplus)
    return (am1, a0, a1), f, ucoeffs, lcoeffs


def test_double_shift_factorization_identity():
    (am1, a0, a1), f, ucoeffs, lcoeffs = _canonical_quadratic(277)
    lam1, u = _inside_eigenpair(f)
    vals, vecs = np.linalg.eig(f.rplus.T)
    k = int(np.argmax(np.abs(vals)))
    lam2 = 1.0 / complex(vals[k])
    v = vecs[:, k].conj()
    rs = ShiftSpec(lam1, lam1, u)
    ls = ShiftSpec(lam2, lam2, v, side="left")
    out = double_shift_factorization(ucoeffs, lcoeffs, rs, ls)
    assert np.array_equal(out.ucoeffs[0], ucoeffs[0])
    assert np.array_equal(out.lcoeffs[1], lcoeffs[1])


def test_double_shift_factorization_matches_shift_of_function():
    (am1, a0, a1), f, ucoeffs, lcoeffs = _canonical_quadratic(281)
    lam1, u = _inside_eigenpair(f)
    vals, vecs = np.linalg.eig(f.rplus.T)
    k = int(np.argmax(np.abs(vals)))
    lam2 = 1.0 / complex(vals[k])
    v = vecs[:, k].conj()
    mu1, mu2 = 0.3 * lam1, 1.4 * lam2
    rs = ShiftSpec(lam1, mu1, u)
    ls = ShiftSpec(lam2, mu2, v, side="left")
    out = double_shift_factorization(ucoeffs, lcoeffs, rs, ls)
    assert len(out.ucoeffs) == len(ucoeffs) and len(out.lcoeffs) == len(lcoeffs)

    shifted = double_shift_laurent(LaurentPoly(-1, (am1, a0, a1)), rs, ls)
    scale = sum(np.linalg.norm(c) for c in (am1, a0, a1))
    for k in range(8):
        z = np.exp(2j * np.pi * k / 8)
        assert (
            np.linalg.norm(out.value(z) - evaluate(shifted, z)) <= 1e-10 * scale
        )


def test_double_shift_factorization_modulus_constraints():
    (_, _, _), f, ucoeffs, lcoeffs = _canonical_quadratic(283)
    lam1, u = _inside_eigenpair(f)
    rs = ShiftSpec(lam1, 0.2 * lam1, u)
    bad_ls = ShiftSpec(0.5, 2.0, np.ones(3), side="left")  # |lambda2| < 1
    with pytest.raises(ModulusConstraintViolated):
        double_shift_factorization(ucoeffs, lcoeffs, rs, bad_ls)


def test_double_shift_factorization_needs_a_right_then_a_left_spec():
    (_, _, _), f, ucoeffs, lcoeffs = _canonical_quadratic(281)
    lam1, u = _inside_eigenpair(f)
    vals, vecs = np.linalg.eig(f.rplus.T)
    k = int(np.argmax(np.abs(vals)))
    lam2, v = 1.0 / complex(vals[k]), vecs[:, k].conj()
    for sides in (("right", "right"), ("left", "left")):
        rs = ShiftSpec(lam1, 0.3 * lam1, u, side=sides[0])
        ls = ShiftSpec(lam2, 1.4 * lam2, v, side=sides[1])
        with pytest.raises(DegenerateShift, match="a right spec and then a left spec"):
            double_shift_factorization(ucoeffs, lcoeffs, rs, ls)


def _double_specs(f, identity=False):
    lam1, u = _inside_eigenpair(f)
    vals, vecs = np.linalg.eig(f.rplus.T)
    k = int(np.argmax(np.abs(vals)))
    lam2, v = 1.0 / complex(vals[k]), vecs[:, k].conj()
    mu1 = lam1 if identity else 0.3 * lam1
    return ShiftSpec(lam1, mu1, u), ShiftSpec(lam2, 1.4 * lam2, v, side="left")


def _record_l_checks(monkeypatch):
    seen, check = [], factorizations._check_l_outside_disk
    monkeypatch.setattr(factorizations, "_check_l_outside_disk",
                        lambda lcoeffs: (seen.append(lcoeffs), check(lcoeffs))[1])
    return seen


def test_double_shift_factorization_checks_the_shifted_l(monkeypatch):
    # the double update runs the det L~ root check of the right update on L~
    (_, _, _), f, ucoeffs, lcoeffs = _canonical_quadratic(281)
    seen = _record_l_checks(monkeypatch)
    out = double_shift_factorization(ucoeffs, lcoeffs, *_double_specs(f))
    assert len(seen) == 1 and seen[0] is out.lcoeffs
    seen.clear()
    double_shift_factorization(ucoeffs, lcoeffs, *_double_specs(f, identity=True))
    assert seen == []  # the right spec does not move L


def test_double_shift_factorization_raises_the_l_check(monkeypatch):
    (_, _, _), f, ucoeffs, lcoeffs = _canonical_quadratic(281)

    def reject(lcoeffs):
        raise NoConvergence("det L~ has a root of modulus 0.5 inside the closed unit disk")

    monkeypatch.setattr(factorizations, "_check_l_outside_disk", reject)
    with pytest.raises(NoConvergence, match="inside the closed unit disk"):
        double_shift_factorization(ucoeffs, lcoeffs, *_double_specs(f))


@pytest.mark.parametrize(
    "lam, mu, error",
    [(0.0, 0.0, ZeroLambda), (None, 1.5, ShiftOutsideDisk), (1.0, 0.0, ShiftOutsideDisk)],
    ids=["lambda_zero", "mu_outside", "lambda_on_circle"],
)
def test_right_and_both_updates_share_their_checks(lam, mu, error):
    rng = np.random.default_rng(257)
    am1, a0, a1 = qbd_quadratic(rng, 3)
    f = cr_quadratic(am1, a0, a1)
    rf = reversed_factorization(am1, a0, a1, f)
    inside, u = _inside_eigenpair(f)
    args = inside if lam is None else lam, mu, u
    eye = np.eye(3, dtype=complex)
    with pytest.raises(error):
        shifted_factorization_right([f.kplus, -f.rplus @ f.kplus], [eye, -f.gplus], *args)
    with pytest.raises(error):
        shifted_factorization_both(am1, a0, a1, f, rf, *args)


def _bad_factor_lists(ucoeffs, lcoeffs):
    """(U, L, error, message) cases that the coefficient validator rejects."""
    nan_u = (ucoeffs[0], np.full_like(ucoeffs[1], math.nan))
    nan_l = (lcoeffs[0], np.full_like(lcoeffs[1], math.nan))
    return [
        ([c[:2, :2] for c in ucoeffs], lcoeffs, DimensionMismatch, "U has size 2 but L has size 3"),
        (ucoeffs, [c[:2, :2] for c in lcoeffs], DimensionMismatch, "U has size 3 but L has size 2"),
        ([], lcoeffs, DimensionMismatch, "at least one coefficient is required"),
        (ucoeffs, [], DimensionMismatch, "at least one coefficient is required"),
        ((ucoeffs[0], ucoeffs[1][:2]), lcoeffs, DimensionMismatch, "coefficient 1 is not square"),
        (nan_u, lcoeffs, ValueError, "coefficient 1 contains non-finite entries"),
        (ucoeffs, nan_l, ValueError, "coefficient 1 contains non-finite entries"),
    ]


def test_factor_updates_validate_their_coefficient_lists():
    # U and L pass the LaurentPoly validator: a bad list is a typed error
    # before any shift runs, and NaN in U is the ValueError NaN in L gives
    (_, _, _), f, ucoeffs, lcoeffs = _canonical_quadratic(281)
    lam, u = _inside_eigenpair(f)
    rs, ls = _double_specs(f)
    for bad_u, bad_l, error, message in _bad_factor_lists(ucoeffs, lcoeffs):
        with pytest.raises(error, match=message):
            shifted_factorization_right(bad_u, bad_l, lam, 0.5 * lam, u)
        with pytest.raises(error, match=message):
            double_shift_factorization(bad_u, bad_l, rs, ls)


def test_factor_updates_return_read_only_copies():
    (_, _, _), f, ucoeffs, lcoeffs = _canonical_quadratic(281)
    lam, u = _inside_eigenpair(f)
    ucoeffs, lcoeffs = [c.copy() for c in ucoeffs], [c.copy() for c in lcoeffs]
    out = shifted_factorization_right(ucoeffs, lcoeffs, lam, 0.5 * lam, u)
    kept = out.ucoeffs[0].copy()
    ucoeffs[0][:] = 0.0  # the caller's arrays are not the result's
    assert np.array_equal(out.ucoeffs[0], kept)
    for c in out.ucoeffs + out.lcoeffs:
        assert not c.flags.writeable


# --- polynomial factorization from a solvent ---

def test_poly_factorization_linear_pencil():
    m = np.array([[0.5, 0.1], [0.0, 0.25]])
    p = MatrixPoly([-m, np.eye(2)])  # z I - M
    pf = poly_factorization(p, m)
    assert np.array_equal(pf.ucoeffs[0], np.eye(2, dtype=complex))
    assert np.array_equal(pf.g, m.astype(complex))


def test_poly_factorization_scalar():
    # z^2 - (3/4) z + 1/8 = (z - 1/2)(z - 1/4); minimal solvent 1/4
    p = MatrixPoly([np.array([[0.125]]), np.array([[-0.75]]), np.array([[1.0]])])
    pf = poly_factorization(p, np.array([[0.25]]))
    assert abs(pf.ucoeffs[0][0, 0] - (-0.5)) <= 1e-14
    assert abs(pf.ucoeffs[1][0, 0] - 1.0) <= 1e-14


def test_poly_factorization_p3_shifted(p3):
    rep = shift_accelerated_solve(p3, 1.0, np.ones(5), np.ones(5) / 5, 0.0)
    shifted_g = rep.g - (1.0 - 0.0) * rep.recovery[2]
    from mpshift import right_shift_poly

    shifted = right_shift_poly(p3, ShiftSpec(1.0, 0.0, np.ones(5), np.ones(5) / 5))
    pf = poly_factorization(shifted, shifted_g)
    assert spectral_radius(pf.g) < 1


def test_poly_factorization_rejects_non_solvent(p3):
    with pytest.raises(NotASolvent):
        poly_factorization(p3, 0.5 * np.eye(5))


def _split_poly(rng, n, d, real):
    """A(z) = U(z) (z I - g) with rho(g) = 0.7 and U_0 dominating U(z) on the closed unit
    disk, so that g is A's minimal solvent; U and g are seeded, real or complex."""
    def draw():
        m = rng.standard_normal((n, n))
        return m if real else m + 1j * rng.standard_normal((n, n))

    g = draw()
    g *= 0.7 / spectral_radius(g)
    u = [4.0 * np.eye(n) + 0.1 * draw()] + [0.3 / d * draw() for _ in range(d - 1)]
    return MatrixPoly([-u[0] @ g] + [u[i - 1] - u[i] @ g for i in range(1, d)] + [u[-1]])


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_poly_factorization_quotient_meets_the_polynomial(d, real):
    # the quotient reproduces A(z) = U(z) (z I - g) at seeded points, with
    # core.evaluate as the independent reference
    rng = np.random.default_rng(40 + 2 * d + real)
    p = _split_poly(rng, 4, d, real)
    _check_quotient(p, solve_unilateral(p).g, rng)


def test_poly_factorization_quotient_of_shifted_p3():
    e = np.ones(5)
    shifted = right_shift_poly(p3(), ShiftSpec(1.0, 0.0, e, e / 5))
    _check_quotient(shifted, solve_unilateral(shifted).g, np.random.default_rng(53))


def _check_quotient(p, g, rng):
    pf = poly_factorization(p, g)
    assert len(pf.ucoeffs) == p.d
    z = 2.0 * rng.random(6) * np.exp(2j * np.pi * rng.random(6))
    eye = np.eye(p.n)
    for zk in z:
        u_z = sum(c * zk**i for i, c in enumerate(pf.ucoeffs))
        scale = sum(np.linalg.norm(c) * abs(zk) ** i for i, c in enumerate(p.coeffs))
        err = np.linalg.norm(evaluate(p, zk) - u_z @ (zk * eye - g))
        assert err <= 1e-12 * scale
