"""Property-based checks of the structural invariants."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mpshift import (
    LaurentPoly,
    MatrixPoly,
    MultiShiftSpec,
    ShiftSpec,
    cli,
    cr_quadratic,
    det_ratio_oracle,
    double_shift_laurent,
    equation_residual,
    evaluate,
    fixtures,
    invariant_pair,
    left_shift_poly,
    multishift_pencil,
    palindromic_shift,
    poly_factorization,
    polyeig,
    read_poly,
    reverse,
    reversed_factorization,
    right_shift_laurent,
    right_shift_pencil,
    right_shift_poly,
    shift_from_infinity,
    shift_to_infinity,
    shifted_factorization_both,
    solve_unilateral,
    unit_vector,
    write_poly,
)
from mpshift.errors import (
    NoConvergence,
    NotAnEigenpair,
    NotASolvent,
    NotInvariant,
    NotPalindromic,
    ShiftOverflow,
)
from mpshift.factorizations import _factor_residual
from mpshift.spectra import invariant_pair_residual, null_vectors

from conftest import (
    critical_qbd,
    crandn,
    mp_json_reference,
    palindromic_quad,
    plant_right,
    rand_laurent,
    rand_poly,
)

finite_doubles = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100
)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(finite_doubles, finite_doubles), min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    )
)
def test_serialization_round_trip_bit_exact(tmp_path_factory, payload):
    coeffs = [
        np.array([[complex(*row[0]), complex(*row[1])], [complex(*row[2]), complex(*row[3])]])
        for row in payload
    ]
    p = MatrixPoly(coeffs)
    path = tmp_path_factory.mktemp("rt") / "p.mp.json"
    write_poly(p, path)
    back = read_poly(path)
    for a, b in zip(p.coeffs, back.coeffs):
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(-2, 0),
    st.integers(1, 3),
    st.data(),
)
def test_file_round_trip_is_bit_exact_with_signed_zeros(tmp_path_factory, n, lo, k, data):
    # full double range: subnormals, +-0.0 in either part, the extremes
    count = max(k, 1 - lo) * n * n * 2
    values = data.draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=count, max_size=count)
    )
    coeffs = np.array(values, dtype=float).view(complex).reshape(-1, n, n)
    p = MatrixPoly(coeffs) if lo == 0 else LaurentPoly(lo, coeffs)
    path = tmp_path_factory.mktemp("rt") / "p.mp.json"
    write_poly(p, path)
    assert path.read_text(encoding="utf-8") == mp_json_reference(p)
    back = read_poly(path)
    assert (back.lo, len(back.coeffs)) == (p.lo, len(p.coeffs))
    got = np.array(back.coeffs).view(np.uint64)
    assert np.array_equal(got, coeffs.view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 4))
def test_reverse_is_involution(seed, n, d):
    rng = np.random.default_rng(seed)
    p = rand_poly(rng, n, d)
    back = reverse(reverse(p))
    for a, b in zip(p.coeffs, back.coeffs):
        assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_horner_agrees_with_power_sum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    d = int(rng.integers(0, 7))
    p = rand_poly(rng, n, d)
    z = complex(crandn(rng))
    naive = sum(z**i * c for i, c in enumerate(p.coeffs))
    assert np.linalg.norm(evaluate(p, z) - naive) <= 1e-13 * max(
        np.linalg.norm(naive), 1.0
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_identity_shift_returns_input(seed):
    rng = np.random.default_rng(seed)
    lam = complex(0.8 * (rng.random() + 1e-3) * np.exp(2j * np.pi * rng.random()))
    u = unit_vector(crandn(rng, 3))
    p = plant_right(rand_poly(rng, 3, 2), lam, u)
    assert right_shift_poly(p, ShiftSpec(lam, lam, u)) is p
    q = plant_right(rand_laurent(rng, 3, -1, 1), lam, u)
    assert right_shift_laurent(q, ShiftSpec(lam, lam, u)) is q


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_shift_preserves_support_and_lead(seed):
    rng = np.random.default_rng(seed)
    lam = complex(0.7 * (rng.random() + 1e-3) * np.exp(2j * np.pi * rng.random()))
    mu = complex(1.5 * rng.random() * np.exp(2j * np.pi * rng.random()))
    u = unit_vector(crandn(rng, 3))
    p = plant_right(rand_poly(rng, 3, 3), lam, u)
    out = right_shift_poly(p, ShiftSpec(lam, mu, u))
    assert out.d == p.d
    assert np.array_equal(out.coeffs[-1], p.coeffs[-1])
    q = plant_right(rand_laurent(rng, 3, -2, 1), lam, u)
    out_l = right_shift_laurent(q, ShiftSpec(lam, mu, u))
    assert (out_l.lo, out_l.hi) == (q.lo, q.hi)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1e-150, 1e150])
@pytest.mark.parametrize("name", ["p1", "p2", "p3"])
def test_scaled_fixture_has_the_same_eigenvalues(name, alpha):
    # a determinant-power rank gate would raise DegeneratePolynomial at
    # 1e-150 and overflow at 1e150
    p = getattr(fixtures, name)()
    base = polyeig(p).values()
    got = polyeig(MatrixPoly([alpha * c for c in p.coeffs])).values()
    assert np.isinf(got).sum() == np.isinf(base).sum()
    base, got = base[np.isfinite(base)], got[np.isfinite(got)]
    rel = np.abs(np.subtract.outer(got, base)) / np.abs(base)
    rows, cols = linear_sum_assignment(rel)
    # p1's double root 1 is defective, resolved only to about 1e-8
    loose = (name == "p1") & (np.abs(base[cols] - 1) < 1e-6)
    assert np.all(rel[rows, cols] <= np.where(loose, 1e-7, 1e-12))


# --- the factorizations, shifts and residuals under coefficient scaling ---
#
# Multiplying every coefficient by alpha leaves G+-, R+- and every gate's
# verdict unchanged and multiplies K+-, the U_i of a polynomial factorization
# and a shifted result by alpha (W = H_0 by 1/alpha).  At alpha = 2^k the
# gates' power-of-two prescale makes that exact: every array is bit-equal,
# signed zeros included.  The alphas reach past 1e+-154, where a Frobenius
# norm of the raw coefficients under- or overflows.

ALPHAS = [2.0**-1000, 1e-300, 1e-160, 1e-150, 1e-20, 1e20, 1e160, 1e300, 2.0**1000]
ALPHA_IDS = ["2^-1000", "1e-300", "1e-160", "1e-150", "1e-20", "1e20", "1e160", "1e300", "2^1000"]


def _assert_scaled(got, want, alpha, power=1):
    """got == alpha^power * want: bit for bit when alpha is a power of two, else to 1e-12."""
    got, want, factor = np.asarray(got), np.asarray(want), alpha**power
    if math.frexp(alpha)[0] == 0.5:
        # real and imaginary parts apart: exact, and signed zeros kept
        parts = np.stack([got.real, got.imag]) / factor
        assert parts.tobytes() == np.stack([want.real, want.imag]).tobytes()
    else:
        assert np.linalg.norm(got / factor - want) <= 1e-12 * np.linalg.norm(want)


def _qbd_blocks(alpha=1.0):
    return [alpha * b for b in critical_qbd(3, 20, 5e-3, 0.99)]


def _largest_eigenpair(m):
    vals, vecs = np.linalg.eig(m)
    k = int(np.argmax(np.abs(vals)))
    return vals[k].real, vecs[:, k].real  # real data: a real eigenpair


@pytest.fixture(scope="module")
def qbd_factors():
    blocks = _qbd_blocks()
    f = cr_quadratic(*blocks)
    return blocks, f, reversed_factorization(*blocks, f)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
def test_reversed_factorization_does_not_depend_on_the_scale(qbd_factors, alpha):
    _, f1, rf1 = qbd_factors
    blocks = _qbd_blocks(alpha)
    f = cr_quadratic(*blocks)
    rf = reversed_factorization(*blocks, f)
    assert f.iterations == f1.iterations
    for got, want, power in (
        (f.gplus, f1.gplus, 0), (f.rplus, f1.rplus, 0), (f.kplus, f1.kplus, 1),
        (rf.gminus, rf1.gminus, 0), (rf.rminus, rf1.rminus, 0),
        (rf.kminus, rf1.kminus, 1), (rf.w, rf1.w, -1),
    ):
        _assert_scaled(got, want, alpha, power)
    assert 0 < f.residual <= 1e-10 and 0 < rf.residual <= 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1.0] + ALPHAS, ids=["1"] + ALPHA_IDS)
def test_a_perturbed_gplus_fails_at_every_scale(qbd_factors, alpha):
    # the reversed factorization reads no G+; the shift update gates G~+'s factorization residual
    blocks1, f1, _ = qbd_factors
    off = f1.gplus + 1e-6 * np.ones_like(f1.gplus)
    blocks = _qbd_blocks(alpha)
    kplus = alpha * f1.kplus
    assert _factor_residual(*blocks, off, f1.rplus, kplus) > 1e-10
    f = cr_quadratic(*blocks)
    lam, u = _largest_eigenpair(f1.gplus)
    with pytest.raises(NoConvergence, match="shifted factorization residual") as caught:
        rf = reversed_factorization(*blocks, f)
        shifted_factorization_both(*blocks, replace(f, gplus=off), rf, lam, 0.0, u)
    assert caught.value.name == "shifted_factorization_both.residual"
    with pytest.raises(NotASolvent, match="sum A_i g"):
        poly_factorization(MatrixPoly(blocks), off)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
def test_shifted_factorization_both_does_not_depend_on_the_scale(qbd_factors, alpha):
    blocks1, f1, rf1 = qbd_factors
    lam, u = _largest_eigenpair(f1.gplus)
    quad1, rev1 = shifted_factorization_both(*blocks1, f1, rf1, lam, 0.0, u)
    blocks = _qbd_blocks(alpha)
    f = cr_quadratic(*blocks)
    quad, rev = shifted_factorization_both(*blocks, f, reversed_factorization(*blocks, f), lam, 0.0, u)
    for got, want, power in (
        (quad.gplus, quad1.gplus, 0), (quad.kplus, quad1.kplus, 1),
        (rev.gminus, rev1.gminus, 0), (rev.rminus, rev1.rminus, 0),
        (rev.kminus, rev1.kminus, 1), (rev.w, rev1.w, -1),
    ):
        _assert_scaled(got, want, alpha, power)
    assert 0 < quad.residual <= 1e-10 and 0 < rev.residual <= 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
def test_poly_factorization_does_not_depend_on_the_scale(alpha):
    p1 = MatrixPoly(_qbd_blocks())
    g = solve_unilateral(p1).g
    want = poly_factorization(p1, g).ucoeffs
    got = poly_factorization(MatrixPoly(_qbd_blocks(alpha)), g).ucoeffs
    for a, b in zip(got, want):
        _assert_scaled(a, b, alpha)


def _palindromic_case():
    p = palindromic_quad(np.random.default_rng(401), 3)
    pair = next(
        q for q in sorted(polyeig(p).finite(), key=lambda q: abs(q.value))
        if abs(abs(q.value) - 1.0) > 0.05
    )
    return p, pair


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
def test_palindromic_shift_does_not_depend_on_the_scale(alpha):
    p, pair = _palindromic_case()
    want = palindromic_shift(p, pair.value, 0.25, pair.right).coeffs
    scaled = MatrixPoly([alpha * c for c in p.coeffs])
    got = palindromic_shift(scaled, pair.value, 0.25, pair.right).coeffs
    for a, b in zip(got, want):
        _assert_scaled(a, b, alpha)
    for beta in (1e-200, 1e200):  # the vector's scale does not matter either
        for a, b in zip(palindromic_shift(scaled, pair.value, 0.25, beta * pair.right).coeffs, want):
            assert np.linalg.norm(a / alpha - b) <= 1e-12 * np.linalg.norm(b)
    with pytest.raises(NotAnEigenpair):
        palindromic_shift(scaled, 1.1 * pair.value, 0.25, pair.right)
    bent = MatrixPoly([scaled.coeffs[0] * (1 + 1e-9), *scaled.coeffs[1:]])
    with pytest.raises(NotPalindromic):
        palindromic_shift(bent, pair.value, 0.25, pair.right)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
@pytest.mark.parametrize("lo", [0, -1])
def test_invariant_pair_residual_does_not_depend_on_the_scale(alpha, lo):
    p = rand_poly(np.random.default_rng(409), 4, 2)
    ip = invariant_pair(p, polyeig(p).finite()[:2])
    off = ip.u + 1e-4 * crandn(np.random.default_rng(419), 4, 2)
    for u, passes in ((ip.u, True), (off, False)):
        want = invariant_pair_residual(LaurentPoly(lo, p.coeffs), u, ip.lam)
        got = invariant_pair_residual(LaurentPoly(lo, [alpha * c for c in p.coeffs]), u, ip.lam)
        assert (got <= 1e-8) == (want <= 1e-8) == passes
        if math.frexp(alpha)[0] == 0.5:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
def test_pencil_shifts_do_not_depend_on_the_scale(alpha):
    rng = np.random.default_rng(421)
    a = crandn(rng, 4, 4)
    vals, vecs = np.linalg.eig(a)
    spec1 = ShiftSpec(vals[0], 0.5, vecs[:, 0])
    spec = ShiftSpec(alpha * vals[0], alpha * 0.5, vecs[:, 0])
    _assert_scaled(right_shift_pencil(alpha * a, spec), right_shift_pencil(a, spec1), alpha)
    ms1 = MultiShiftSpec(vecs[:, :2], np.diag(vals[:2]), np.diag([0.5, -0.5]))
    ms = MultiShiftSpec(vecs[:, :2], alpha * np.diag(vals[:2]), alpha * np.diag([0.5, -0.5]))
    _assert_scaled(multishift_pencil(alpha * a, ms), multishift_pencil(a, ms1), alpha)
    with pytest.raises(NotAnEigenpair):
        right_shift_pencil(alpha * a, ShiftSpec(1.1 * alpha * vals[0], 0.0, vecs[:, 0]))
    with pytest.raises(NotInvariant):
        multishift_pencil(alpha * a, MultiShiftSpec(vecs[:, :2], 1.1 * ms.lam, ms.s))


# --- the oracle-checked shifts, check and eigen solves of p3 under scaling ---
#
# p3's largest entry is 0.98, so p3 times P3BIG has every entry finite and
# within 3% of the largest double.

P3BIG = 2.0**1023 * (2.2 / 1.12)
P3_SCALES = [1.0] + ALPHAS + [P3BIG]
P3_SCALE_IDS = ["1"] + ALPHA_IDS + ["p3big"]
P3_SHIFTS = ["left", "laurent", "double", "to-inf", "from-inf"]


def _p3_shift(kind, alpha):
    """``(a, shift, removed, added, fit_constant)``: a shift of p3 times alpha the oracle
    re-checks, ``shift()`` applying it; vectors come from p3 itself."""
    p3, e = fixtures.p3(), np.ones(5)
    p = MatrixPoly([alpha * c for c in p3.coeffs])
    if kind == "left":
        y = null_vectors(p3, 1.0, left=True)[1]
        return p, lambda: left_shift_poly(p, ShiftSpec(1.0, 0.25, y, side="left")), [1.0], [0.25], False
    if kind in ("laurent", "double"):
        q = LaurentPoly(-1, p.coeffs)  # z^-1 A(z): the same eigenvalues
        rspec = ShiftSpec(1.0, 0.25, e)
        if kind == "laurent":
            return q, lambda: right_shift_laurent(q, rspec), [1.0], [0.25], False
        lam2 = max(polyeig(p3).finite(), key=lambda pair: pair.value.real).value.real  # 3.749
        lspec = ShiftSpec(lam2, 0.5, null_vectors(p3, lam2, left=True)[1], side="left")
        return q, lambda: double_shift_laurent(q, rspec, lspec), [1.0, lam2], [0.25, 0.5], False
    if kind == "to-inf":
        return p, lambda: shift_to_infinity(p, 1.0, e), [1.0], [], True
    t = shift_to_infinity(p, 1.0, e)  # from-inf: the eigenvalue infinity of t back to 0.25
    u = np.linalg.svd(shift_to_infinity(p3, 1.0, e).coeffs[-1])[2][-1].conj()
    return t, lambda: shift_from_infinity(t, 0.25, u), [], [0.25], True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", P3_SCALES, ids=P3_SCALE_IDS)
@pytest.mark.parametrize("kind", P3_SHIFTS)
def test_oracle_checked_shifts_do_not_depend_on_the_scale(kind, alpha):
    # the shift of alpha A(z) is alpha times the shift of A(z), its oracle
    # passes, and a wrong added value fails with a finite error; the oracle's
    # evaluations overflowed near the top of double range (a false FAIL)
    a1, shift1, removed, added, fit = _p3_shift(kind, 1.0)
    want = shift1().coeffs
    a, shift, _, _, _ = _p3_shift(kind, alpha)
    if math.isinf(max(float(np.abs(c).max()) for c in want) * alpha):
        # alpha times the result is beyond double range, so the shift must
        # fail, with a typed error and no numpy warning
        with pytest.raises(ShiftOverflow, match="beyond double range"):
            shift()
        return
    shifted = shift()
    for got, b in zip(shifted.coeffs, want):
        _assert_scaled(got, b, alpha)
    wrong = [w + 0.05 for w in added] or [0.3]
    for adds, passes in ((added, True), (wrong, False)):
        rep = det_ratio_oracle(a, shifted, removed, adds, 16, 42, fit)
        rep1 = det_ratio_oracle(a1, shift1(), removed, adds, 16, 42, fit)
        assert rep.passed == passes and math.isfinite(rep.max_rel_err)
        assert rep.max_rel_err == pytest.approx(rep1.max_rel_err, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("alpha", P3_SCALES, ids=P3_SCALE_IDS)
def test_check_does_not_depend_on_the_scale(tmp_path, capsys, alpha):
    a, shift, _, _, _ = _p3_shift("left", alpha)
    paths = [str(tmp_path / "a.mp.json"), str(tmp_path / "b.mp.json")]
    write_poly(a, paths[0])
    write_poly(shift(), paths[1])
    for added, status in (("0.25", 0), ("0.3", 1)):
        code = cli.main(["check", *paths, "--removed", "1", "--added", added, "--format", "json"])
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (code, err, report["passed"]) == (status, "", status == 0)
        assert report["max_rel_err"] < (1e-12 if status == 0 else 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", P3_SCALES, ids=P3_SCALE_IDS)
def test_eigen_solve_does_not_depend_on_the_scale(alpha):
    # alpha A(z) has the minimal solvent of A(z); a perturbed one fails at every scale
    g1 = solve_unilateral(fixtures.p3(), method="eigen").g
    p = MatrixPoly([alpha * c for c in fixtures.p3().coeffs])
    rep = solve_unilateral(p, method="eigen")
    assert rep.residual <= 1e-14
    assert np.linalg.norm(rep.g - g1) <= 1e-11 * np.linalg.norm(g1)
    off = rep.g + 1e-6 * np.linalg.norm(rep.g) * np.eye(5)
    assert equation_residual(p, off) > 1e-10
