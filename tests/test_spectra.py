"""Polynomial eigensolver, refinement, and invariant pairs."""

import math

import numpy as np
import pytest

from mpshift import (
    LaurentPoly,
    MatrixPoly,
    MultiShiftSpec,
    companion_pencil,
    det_at,
    det_ratio_oracle,
    evaluate,
    invariant_pair,
    multishift_poly,
    unit_vector,
    polyeig,
    refine_pair,
)
from mpshift.errors import (
    DegeneratePolynomial,
    DependentEigenvectors,
    DistinctnessViolated,
    EigensolverFailure,
    SingularLambda,
)

from mpshift.spectra import invariant_pair_residual, null_vectors

from conftest import crandn, far_quadratic, match_moduli, rand_poly, shared_kernel_poly


def test_polyeig_p1(p1):
    vals = polyeig(p1).values()
    assert match_moduli(vals, [1 / 3, 1 / 2, 1.0, 1.0]) <= 1e-7


def test_polyeig_p1_double_root_is_ill_conditioned(p1):
    vals = sorted(polyeig(p1).values(), key=lambda z: abs(z - 1.0))
    worst = max(abs(vals[0] - 1.0), abs(vals[1] - 1.0))
    assert 1e-12 < worst < 1e-5  # genuinely limited by the defective root


def test_polyeig_p2_two_infinite(p2):
    spec = polyeig(p2)
    expected = [complex(np.inf), complex(np.inf), 1j, -1j, 1j * np.sqrt(3), -1j * np.sqrt(3)]
    assert match_moduli(spec.values(), expected) <= 1e-7


def test_polyeig_diagonal_pencil_exact():
    p = MatrixPoly([-np.diag([1.0, 2.0, 3.0]), np.eye(3)])
    vals = polyeig(p).values()
    assert match_moduli(vals, [1.0, 2.0, 3.0]) <= 1e-12


def test_polyeig_residual_invariant(p1, p2, p3):
    rng = np.random.default_rng(3)
    cases = [p1, p2, p3, rand_poly(rng, 4, 2), rand_poly(rng, 2, 5)]
    for p in cases:
        for q in polyeig(p).pairs:
            assert q.residual <= 1e-8


def test_polyeig_sorted_by_modulus_infinity_last(p2):
    pairs = polyeig(p2).pairs
    mods = [abs(q.value) for q in pairs]
    assert mods == sorted(mods)
    assert [q.is_infinite for q in pairs] == sorted(q.is_infinite for q in pairs)


def test_polyeig_count_is_n_times_d(p3):
    assert len(polyeig(p3).pairs) == 5 * 4


def test_polyeig_degenerate_rejected():
    p = MatrixPoly(
        [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    )
    with pytest.raises(DegeneratePolynomial):
        polyeig(p)


@pytest.mark.parametrize("n", [16, 32, 100])
def test_polyeig_random_complex_quadratic_at_size(n):
    # a gate of the form |det A(c)| > 1e-12 ||A(c)||_F^n rejects these from n = 16 on
    spec = polyeig(rand_poly(np.random.default_rng(n), n, 2))
    assert len(spec.finite()) == 2 * n
    assert max(q.residual for q in spec.pairs) <= 1e-12


def test_polyeig_shared_kernel_vector_is_degenerate():
    p = shared_kernel_poly(np.random.default_rng(5), 8, 2)
    with pytest.raises(DegeneratePolynomial, match="det A\\(z\\) vanishes at all probe points"):
        polyeig(p)


def test_polyeig_reports_failed_cayley_solves(p1, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(EigensolverFailure, match="no usable Cayley point after 10 attempts"):
        polyeig(p1)


@pytest.mark.parametrize("ratio, infinite", [(1e-9, True), (1e-7, False)])
def test_polyeig_borderline_band(ratio, infinite):
    # sigma_min(A_1) = ratio * sigma_max(A_1) puts one eigenvalue of A_0 + z A_1
    # at |z| ~ 1/ratio, in polyeig's borderline band; it counts as infinite only
    # when A_1 is numerically singular (sigma_min <= 1e-8 of its scale)
    rng = np.random.default_rng(0)
    a0, a1 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    w, sv, vh = np.linalg.svd(a1)
    sv[-1] = ratio * sv[0]
    far = polyeig(MatrixPoly([a0, (w * sv) @ vh])).pairs[-1]
    assert far.is_infinite == infinite and far.borderline == infinite
    if not infinite:
        assert 7e5 <= abs(far.value) <= 8e5


def test_polyeig_degree_zero():
    rng = np.random.default_rng(6)
    spec = polyeig(MatrixPoly([crandn(rng, 3, 3)]))
    assert spec.pairs == () and spec.cayley_point == 0
    with pytest.raises(DegeneratePolynomial, match="det A\\(z\\) vanishes at all probe points"):
        polyeig(MatrixPoly([np.diag([1.0, 2.0, 0.0])]))


def test_polyeig_matches_scalarized_determinant_roots():
    # brute-force oracle: interpolate det A(z) on nd+1 points, take its roots
    rng = np.random.default_rng(17)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        p = rand_poly(rng, n, d)
        deg = n * d
        pts = 1.1 * np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
        vand = np.vander(pts, deg + 1, increasing=True)
        coeffs = np.linalg.solve(vand, np.array([det_at(p, z) for z in pts]))
        roots = np.roots(coeffs[::-1])
        vals = polyeig(p).values()
        assert match_moduli(vals, roots) <= 1e-6


def test_polyeig_invariant_under_cayley_seed(p1):
    rng = np.random.default_rng(23)
    base = np.sort_complex(polyeig(p1, seed=0).values())
    for seed in range(1, 6):
        other = np.sort_complex(polyeig(p1, seed=seed).values())
        assert np.max(np.abs(base - other)) <= 1e-7
    q = rand_poly(rng, 3, 2)
    base = np.sort_complex(polyeig(q, seed=0).values())
    for seed in range(1, 6):
        other = np.sort_complex(polyeig(q, seed=seed).values())
        assert np.max(np.abs(base - other)) <= 1e-7


def test_polyeig_left_vectors(p1):
    spec = polyeig(p1, want_left=True)
    for q in spec.finite():
        res = np.linalg.norm(q.left.conj() @ evaluate(p1, q.value))
        assert res <= 1e-7


def test_companion_pencil_determinant(p1, p3):
    rng = np.random.default_rng(29)
    for p in (p1, p3):
        pencil = companion_pencil(p)
        for _ in range(3):
            z = complex(crandn(rng))
            dp = complex(np.linalg.det(pencil.c1 - z * pencil.c2))
            da = det_at(p, z)
            ratio = dp / da
            assert min(abs(ratio - 1), abs(ratio + 1)) <= 1e-8


# --- refinement ---

def test_refine_pair_p1_double_root(p1):
    u = np.array([1.0, 1e-9])
    pair = refine_pair(p1, 1.0 + 1e-8, u)
    assert pair.residual <= 1e-12


def test_refine_pair_fixed_point(p1):
    pair = refine_pair(p1, 1.0, np.array([1.0, 0.0]))
    assert pair.value == 1.0
    assert np.array_equal(pair.right, np.array([1.0, 0.0], dtype=complex))
    assert pair.residual == 0.0


def test_refine_pair_p3_ones(p3):
    e = np.ones(5) / np.sqrt(5)
    pair = refine_pair(p3, 1.0, e)
    assert pair.residual <= 1e-12


def test_refine_pair_improves_random():
    rng = np.random.default_rng(31)
    p = rand_poly(rng, 3, 2)
    target = polyeig(p).finite()[0]
    rough = refine_pair(p, target.value * (1 + 1e-6), target.right + 0.01 * crandn(rng, 3))
    assert rough.residual <= 1e-10


# --- invariant pairs ---

def test_invariant_pair_single_p1(p1):
    pair = refine_pair(p1, 1.0, np.array([1.0, 0.0]))
    inv = invariant_pair(p1, [pair])
    assert np.array_equal(inv.u[:, 0], np.array([1.0, 0.0], dtype=complex))
    assert inv.lam[0, 0] == 1.0
    assert np.allclose(inv.v[:, 0], np.array([1.0, 0.0]))
    assert inv.residual <= 1e-12


def test_invariant_pair_diag_pencil():
    p = MatrixPoly([-np.diag([1.0, 2.0, 3.0]), np.eye(3)])
    pairs = [q for q in polyeig(p).pairs if abs(q.value) < 2.5]
    inv = invariant_pair(p, pairs)
    assert np.allclose(np.abs(inv.u), np.eye(3)[:, :2], atol=1e-10)
    assert np.allclose(sorted(np.diag(inv.lam).real), [1.0, 2.0])


def test_invariant_pair_random_quadratic_residual():
    rng = np.random.default_rng(37)
    p = rand_poly(rng, 4, 2)
    pairs = sorted(polyeig(p).finite(), key=lambda q: abs(q.value))[:2]
    inv = invariant_pair(p, pairs)
    assert inv.residual <= 1e-8
    assert np.linalg.norm(inv.v.conj().T @ inv.u - np.eye(2)) <= 1e-10


def test_invariant_pair_rejects_dependent_vectors():
    from mpshift import EigenPair

    u = np.array([1.0, 0.0, 0.0], dtype=complex)
    pairs = [EigenPair(0.5, u), EigenPair(0.6, u)]
    with pytest.raises(DependentEigenvectors):
        invariant_pair(MatrixPoly([np.eye(3), np.eye(3), np.eye(3)]), pairs)


def test_invariant_pair_rejects_coincident_eigenvalues():
    from mpshift import EigenPair

    pairs = [
        EigenPair(0.5, np.array([1.0, 0.0, 0.0])),
        EigenPair(0.5, np.array([0.0, 1.0, 0.0])),
    ]
    with pytest.raises(DistinctnessViolated):
        invariant_pair(MatrixPoly([np.eye(3), np.eye(3)]), pairs)


def test_invariant_pair_then_identity_multishift_is_exact():
    rng = np.random.default_rng(41)
    p = rand_poly(rng, 4, 2)
    pairs = sorted(polyeig(p).finite(), key=lambda q: abs(q.value))[:2]
    inv = invariant_pair(p, pairs)
    ms = MultiShiftSpec(inv.u, inv.lam, inv.lam, inv.v)
    back = multishift_poly(p, ms)
    for a, b in zip(p.coeffs, back.coeffs):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("z", [0.3 + 0.2j, complex(np.inf, 0.0)], ids=["finite", "infinite"])
def test_null_vectors_are_the_svd_idiom(p2, z):
    # at infinity A(z) means the leading coefficient; the vectors are bit-for-bit
    # those of unit_vector(Vh[-1]^*) and unit_vector(U[:, -1])
    m = p2.coeffs[-1] if np.isinf(z.real) else evaluate(p2, z)
    lu, _, vh = np.linalg.svd(m)
    u, y = null_vectors(p2, z, left=True)
    assert np.array_equal(u, unit_vector(vh[-1].conj()))
    assert np.array_equal(y, unit_vector(lu[:, -1]))
    assert null_vectors(p2, z)[1] is None
    assert np.array_equal(null_vectors(p2, z)[0], u)


# --- evaluation outside the unit disk ---

FAR = [1e6, 1e150, 1e300]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", FAR)
def test_null_vectors_far_outside_the_disk(lam):
    # A(lam) itself overflows from 1e155 on; its frame lam^-2 A(lam) does not
    p, u = far_quadratic(lam)
    got = null_vectors(p, lam)[0]
    assert np.linalg.norm(got - np.vdot(u, got) * u) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", FAR)
def test_refine_pair_far_outside_the_disk(lam):
    p, u = far_quadratic(lam)
    pair = refine_pair(p, lam * (1 + 1e-8), u)
    assert pair.residual <= 1e-12
    assert abs(pair.value / lam - 1) <= 2e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho", [1e100, 1e160, 1e300, 1e-300])
@pytest.mark.parametrize("lo", [0, -1])
def test_invariant_pair_residual_at_extreme_radii(rho, lo):
    # the residual tends to ||C e_1|| / ||C||, C = A_hi for rho -> inf and A_lo
    # for rho -> 0; rho ** i in Python floats overflowed from 1e160 on
    p = LaurentPoly(lo, rand_poly(np.random.default_rng(1), 2, 2).coeffs)
    res = invariant_pair_residual(p, np.eye(2)[:, :1], [[rho]])
    c = p.coeffs[-1] if rho > 1 else p.coeffs[0]
    assert math.isfinite(res)
    assert res == pytest.approx(np.linalg.norm(c[:, 0]) / np.linalg.norm(c), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_invariant_pair_residual_inverts_lambda_only_for_negative_powers():
    # Lambda = diag(0, 2) is a valid packet of a polynomial, so no frame may
    # invert it; with lo = -1, Lambda^-1 is needed and a singular one is refused
    rng = np.random.default_rng(449)
    a0, a1, a2 = (rng.integers(-3, 4, (3, 3)).astype(float) for _ in range(3))
    a0[:, 0] = 0.0  # A_0 e_1 = 0
    a0[:, 1] = -2.0 * a1[:, 1] - 4.0 * a2[:, 1]  # A(2) e_2 = 0, exactly
    p = MatrixPoly([a0, a1, a2])
    u, lam = np.eye(3)[:, :2], np.diag([0.0, 2.0])
    assert invariant_pair_residual(p, u, lam) == 0.0
    shifted = multishift_poly(p, MultiShiftSpec(u, lam, np.diag([0.5, -0.5])))
    assert det_ratio_oracle(p, shifted, removed=[0.0, 2.0], added=[0.5, -0.5]).passed
    for singular in (lam, np.zeros((2, 2))):
        with pytest.raises(SingularLambda):
            invariant_pair_residual(LaurentPoly(-1, p.coeffs), u, singular)
