"""One polynomial type: a matrix polynomial is a LaurentPoly with lo = 0."""

from dataclasses import replace

import numpy as np
import pytest

import mpshift
from mpshift import (
    LaurentPoly,
    MatrixPoly,
    ShiftSpec,
    fixture,
    palindromic_shift,
    poly_factorization,
    polyeig,
    reblock,
    reverse,
    right_shift_laurent,
    right_shift_poly,
    shift_accelerated_solve,
    shift_from_infinity,
    shift_to_infinity,
    solve_unilateral,
    unit_vector,
)
from mpshift.core import INF, evaluate, matrix_horner
from mpshift.errors import DimensionMismatch
from mpshift.spectra import invariant_pair_residual

from conftest import crandn, palindromic_quad, qbd_quadratic, rand_laurent


def test_matrix_poly_is_a_laurent_poly_with_lo_zero():
    p = fixture("p1")
    assert isinstance(p, LaurentPoly)
    assert (p.lo, p.hi, p.d) == (0, 2, 2)
    q = LaurentPoly(-1, p.coeffs)
    assert (q.lo, q.hi, q.d) == (-1, 1, 2)
    with pytest.raises(TypeError):  # a container holds the lo and the coefficients, nothing else
        LaurentPoly(-1, p.coeffs, True)
    with pytest.raises(TypeError):
        MatrixPoly(p.coeffs, lo=-1)
    assert type(replace(p, coeffs=p.coeffs[:2])) is MatrixPoly
    assert type(p.to_laurent()) is LaurentPoly and p.to_laurent().lo == 0


@pytest.mark.parametrize("kind", ["right_shift", "left_shift", "multishift"])
def test_entry_point_pairs_are_one_function(kind):
    assert getattr(mpshift, f"{kind}_poly") is getattr(mpshift, f"{kind}_laurent")


def test_right_shift_routes_infinity_on_polynomials_only():
    p2 = fixture("p2")
    e1 = [1.0, 0.0, 0.0]
    spec = ShiftSpec(INF, 1.0, e1)
    want = shift_from_infinity(p2, 1.0, e1)
    for p in (p2, LaurentPoly(0, p2.coeffs)):
        got = right_shift_poly(p, spec)
        assert type(got) is type(p)
        assert all(np.array_equal(a, b) for a, b in zip(got.coeffs, want.coeffs))
    with pytest.raises(DimensionMismatch):
        right_shift_laurent(LaurentPoly(-1, p2.coeffs), spec)


def _right_null(p, lam):
    return unit_vector(np.linalg.svd(evaluate(p, lam))[2][-1].conj())


def _polyeig_case():
    return fixture("p1"), lambda p: polyeig(p).values()


def _reverse_case():
    return fixture("p2"), reverse


def _reblock_case():
    def blocks(p):
        rq = reblock(p)
        return rq.bm1, rq.b0, rq.b1

    return fixture("p3"), blocks


def _solve_case():
    return fixture("p3"), lambda p: solve_unilateral(p).g


def _poly_factorization_case():
    # a subcritical QBD read as a polynomial: its minimal solvent has rho < 1
    p = MatrixPoly(qbd_quadratic(np.random.default_rng(239), 4))
    g = solve_unilateral(p).g
    return p, lambda p: poly_factorization(p, g).ucoeffs


def _shift_solve_case():
    e = np.ones(5)
    return fixture("p3"), lambda p: shift_accelerated_solve(p, 1.0, e, e / 5).g


def _from_infinity_case():
    # p2's leading coefficient diag(0, 1, 1) annihilates e_1
    return fixture("p2"), lambda p: shift_from_infinity(p, 1.0, [1.0, 0.0, 0.0])


def _to_infinity_case():
    p1 = fixture("p1")
    u = _right_null(p1, 0.5)
    return p1, lambda p: shift_to_infinity(p, 0.5, u)


def _palindromic_case():
    p = palindromic_quad(np.random.default_rng(227), 3)
    q = polyeig(p).finite()[0]  # smallest modulus, away from the unit circle
    return p, lambda p: palindromic_shift(p, q.value, 0.2, q.right)


POLY_ONLY = {
    "polyeig": _polyeig_case,
    "reverse": _reverse_case,
    "reblock": _reblock_case,
    "solve_unilateral": _solve_case,
    "poly_factorization": _poly_factorization_case,
    "shift_accelerated_solve": _shift_solve_case,
    "shift_from_infinity": _from_infinity_case,
    "shift_to_infinity": _to_infinity_case,
    "palindromic_shift": _palindromic_case,
}


@pytest.mark.parametrize("name", list(POLY_ONLY))
def test_polynomial_functions_take_laurent_lo_zero(name):
    mp, call = POLY_ONLY[name]()
    lp = LaurentPoly(0, mp.coeffs)
    want, got = call(mp), call(lp)
    if isinstance(want, LaurentPoly):
        assert type(want) is MatrixPoly and type(got) is LaurentPoly
        assert got.lo == 0
        want, got = want.coeffs, got.coeffs
    want, got = np.asarray(want), np.asarray(got)
    assert want.shape == got.shape
    assert np.max(np.abs(want - got)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
    with pytest.raises(DimensionMismatch):
        call(LaurentPoly(-1, mp.coeffs))


def test_matrix_horner_matches_power_sum():
    rng = np.random.default_rng(229)
    coeffs = [crandn(rng, 4, 4) for _ in range(4)]
    x = 0.5 * crandn(rng, 4, 4)
    naive = sum(c @ np.linalg.matrix_power(x, k) for k, c in enumerate(coeffs))
    assert np.linalg.norm(matrix_horner(coeffs, x) - naive) <= 1e-13 * np.linalg.norm(naive)
    assert np.array_equal(matrix_horner(coeffs[:1], x), coeffs[0])


@pytest.mark.parametrize("lo", [0, -1, -2])
def test_invariant_pair_residual_matches_power_sum(lo):
    rng = np.random.default_rng(233 - lo)
    p = rand_laurent(rng, 4, lo, 2)
    u = crandn(rng, 4, 2)
    lam = np.diag([0.7 + 0.2j, -1.3j])
    lam_inv = np.diag(1 / np.diag(lam))
    naive = sum(
        c @ u @ np.linalg.matrix_power(lam_inv if lo + k < 0 else lam, abs(lo + k))
        for k, c in enumerate(p.coeffs)
    )
    scale = sum(np.linalg.norm(c) * 1.3 ** (lo + k) for k, c in enumerate(p.coeffs))
    expected = np.linalg.norm(naive) / (np.linalg.norm(u) * scale)
    assert abs(invariant_pair_residual(p, u, lam) - expected) <= 1e-13 * expected

