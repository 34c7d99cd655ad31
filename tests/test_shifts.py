"""All shift transformations: single, double, multishift, infinity, palindromic."""


import numpy as np
import pytest

from mpshift import (
    LaurentPoly,
    MatrixPoly,
    MultiShiftSpec,
    ShiftSpec,
    cr_quadratic,
    det_ratio_oracle,
    double_shift_laurent,
    evaluate,
    left_shift_laurent,
    left_shift_poly,
    multishift_laurent,
    multishift_pencil,
    multishift_poly,
    palindromic_shift,
    polyeig,
    refine_pair,
    right_shift_laurent,
    right_shift_pencil,
    right_shift_poly,
    shift_from_infinity,
    shift_to_infinity,
    unit_vector,
)
from mpshift.core import INF
from mpshift.errors import (
    DegenerateShift,
    DimensionMismatch,
    NotAnEigenpair,
    NotInKernel,
    NotInvariant,
    NotPalindromic,
    ShiftOverflow,
    SingularLambda,
    ZeroLambda,
    ZeroLambdaWithNegativePowers,
    ZeroMu,
)
from mpshift.spectra import null_vectors

from conftest import (
    critical_qbd,
    crandn,
    match_moduli,
    palindromic_quad,
    plant_kernel_lead,
    plant_left,
    plant_right,
    plant_right_pairs,
    poly_scale,
    rand_laurent,
    rand_poly,
    real_palindromic_quad,
)


def coeffs_equal(p, q):
    return all(np.array_equal(a, b) for a, b in zip(p.coeffs, q.coeffs))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(vector=[1, 0], dual=[0, 1]), "orthogonal"),
        (dict(vector=[0, 0]), "nonzero"),
        (dict(vector=[1, 0], side="up"), "side must be"),
    ],
    ids=["orthogonal_dual", "zero_vector", "bad_side"],
)
def test_shift_spec_rejects_degenerate_parameters(kwargs, message):
    with pytest.raises(DegenerateShift, match=message):
        ShiftSpec(1.0, 0.0, **kwargs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "vector, dual",
    [([1e-200, 0], [1, 0]), ([1e200, 0], [1e200, 0]), ([1e-200, 0], [1e-200, 1e-200]),
     ([2.0**-1000, 0], [2.0**1000, 0])],
    ids=["tiny_vector", "huge_both", "tiny_both", "powers_of_two"],
)
def test_shift_spec_does_not_depend_on_the_vector_scale(vector, dual):
    # Q = u v* / (v* u) is the same for any nonzero multiples of u and v; the
    # norms and the inner product used to under- or overflow
    want = ShiftSpec(1, 0, [1, 0], [1, 0] if dual[1] == 0 else [1, 1]).q
    spec = ShiftSpec(1, 0, vector, dual)
    assert np.vdot(spec.vector, spec.dual) == pytest.approx(1, rel=1e-15)
    assert np.allclose(spec.q, want, rtol=0, atol=1e-15)


def test_shift_spec_keeps_the_dual_bits_under_a_power_of_two():
    rng = np.random.default_rng(433)
    u, v = crandn(rng, 4), crandn(rng, 4)
    want = ShiftSpec(0.5, 0.0, u, v)
    for k in (-1000, -3, 5, 1000):
        got = ShiftSpec(0.5, 0.0, u, 2.0**k * v)
        assert got.dual.tobytes() == want.dual.tobytes()
        assert got.q.tobytes() == want.q.tobytes()


NAN = float("nan")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda p1, p2: right_shift_poly(p1, ShiftSpec(1.0, 0.0, [NAN, 0.0])), "vectors must be finite"),
        (lambda p1, p2: ShiftSpec(1.0, 0.0, [1.0, 0.0], [1.0, NAN]), "vectors must be finite"),
        (lambda p1, p2: ShiftSpec(complex(1.0, NAN), 0.0, [1.0, 0.0]), "must not be NaN"),
        (lambda p1, p2: ShiftSpec(1.0, NAN, [1.0, 0.0]), "must not be NaN"),
        (lambda p1, p2: shift_from_infinity(p2, 1.0, [NAN, 0.0, 0.0]), "vectors must be finite"),
        (lambda p1, p2: MultiShiftSpec([[NAN], [0.0], [0.0]], [[1.0]], [[0.0]]), "must be finite"),
        (lambda p1, p2: MultiShiftSpec(np.eye(3)[:, :1], [[1.0]], [[NAN]]), "must be finite"),
        (lambda p1, p2: MultiShiftSpec(np.eye(3)[:, :1], [[1.0]], [[0.0]], [[1.0], [NAN], [0.0]]),
         "must be finite"),
    ],
    ids=["right_vector", "dual", "lambda", "mu", "from_infinity", "multi_u", "multi_s", "multi_v"],
)
def test_nan_shift_parameters_are_degenerate(p1, p2, make, message):
    # a NaN vector gives a NaN residual, which a `res > tol` gate passes;
    # the shift would then fail in the container with an untyped ValueError
    with pytest.raises(DegenerateShift, match=message):
        make(p1, p2)


@pytest.mark.parametrize(
    "shift, error",
    [
        (lambda p: right_shift_poly(p, ShiftSpec(1.0, 0.0, [1.0, 0.0])), NotAnEigenpair),
        (lambda p: left_shift_poly(p, ShiftSpec(1.0, 0.0, [1.0, 0.0], side="left")), NotAnEigenpair),
        (lambda p: shift_to_infinity(p, 1.0, [1.0, 0.0]), NotAnEigenpair),
        (lambda p: shift_from_infinity(p, 1.0, [1.0, 0.0]), NotInKernel),
        (lambda p: palindromic_shift(p, 1.0, 0.5, [1.0, 0.0]), NotAnEigenpair),
    ],
    ids=["right", "left", "to_infinity", "from_infinity", "palindromic"],
)
def test_nan_eigenpair_residual_fails_the_shift_gates(monkeypatch, shift, error):
    import mpshift.shifts

    monkeypatch.setattr(mpshift.shifts, "pair_residual", lambda *args: float("nan"))
    p = MatrixPoly([np.eye(2), np.zeros((2, 2)), np.eye(2)])  # *-palindromic
    with pytest.raises(error, match="residual nan exceeds"):
        shift(p)


def test_nan_invariant_pair_residual_fails_the_packet_gates(monkeypatch, p1):
    import mpshift.spectra

    monkeypatch.setattr(mpshift.spectra, "invariant_pair_residual", lambda *args: float("nan"))
    ms = MultiShiftSpec(np.eye(2)[:, :1], [[1.0]], [[0.0]])
    with pytest.raises(NotInvariant, match="residual nan exceeds"):
        multishift_poly(p1, ms)


def test_nan_matrix_fails_the_pencil_gates():
    a = np.diag([1.0, NAN])
    with pytest.raises(NotAnEigenpair, match="residual nan exceeds"):
        right_shift_pencil(a, ShiftSpec(1.0, 0.0, [1, 0]))
    ms = MultiShiftSpec(np.eye(3)[:, :2], np.diag([1.0, 2.0]), np.eye(2))
    with pytest.raises(NotInvariant, match="residual nan exceeds"):
        multishift_pencil(np.diag([1.0, 2.0, NAN]), ms)


# --- right shift: pencil ---

def test_pencil_shift_diagonal():
    a = np.diag([1.0, 2.0])
    out = right_shift_pencil(a, ShiftSpec(1.0, 5.0, [1, 0], [1, 0]))
    assert np.array_equal(out, np.diag([5.0, 2.0]).astype(complex))


def test_pencil_shift_identity():
    a = np.diag([1.0, 2.0])
    out = right_shift_pencil(a, ShiftSpec(1.0, 1.0, [1, 0]))
    assert np.array_equal(out, a.astype(complex))


def test_pencil_shift_random_largest_to_zero():
    rng = np.random.default_rng(43)
    a = crandn(rng, 4, 4)
    vals, vecs = np.linalg.eig(a)
    k = int(np.argmax(np.abs(vals)))
    out = right_shift_pencil(a, ShiftSpec(vals[k], 0.0, vecs[:, k]))
    expected = np.concatenate(([0.0], np.delete(vals, k)))
    assert match_moduli(np.linalg.eigvals(out), expected) <= 1e-8


def test_pencil_shift_rejects_non_eigenpair():
    with pytest.raises(NotAnEigenpair):
        right_shift_pencil(np.diag([1.0, 2.0]), ShiftSpec(1.5, 0.0, [1, 0]))


# --- right shift: polynomial ---

def test_right_shift_p1_printed_matrices(p1):
    out = right_shift_poly(p1, ShiftSpec(1.0, 0.0, [1, 0], [1, 0]))
    assert np.array_equal(out.coeffs[0], -np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert np.array_equal(out.coeffs[1], np.array([[1.0, 3.0], [0.0, 4.0]], dtype=complex))
    assert np.array_equal(out.coeffs[2], p1.coeffs[2])


def test_right_shift_identity_is_exact(p1):
    out = right_shift_poly(p1, ShiftSpec(1.0, 1.0, [1, 0]))
    assert coeffs_equal(out, p1)


def test_right_shift_scalar_rational_cancellation():
    p = MatrixPoly([np.array([[-2.0]]), np.array([[1.0]])])  # z - 2
    out = right_shift_poly(p, ShiftSpec(2.0, 3.0, [1.0]))
    assert np.array_equal(out.coeffs[0], np.array([[-3.0]], dtype=complex))
    assert np.array_equal(out.coeffs[1], np.array([[1.0]], dtype=complex))


def test_right_shift_preserves_degree_and_lead():
    rng = np.random.default_rng(47)
    p = rand_poly(rng, 3, 4)
    lam, u = 0.3 - 0.6j, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, u)
    out = right_shift_poly(p, ShiftSpec(lam, 1.7j, u))
    assert out.d == p.d
    assert np.array_equal(out.coeffs[-1], p.coeffs[-1])


def test_right_shift_rejects_non_eigenpair(p1):
    with pytest.raises(NotAnEigenpair):
        right_shift_poly(p1, ShiftSpec(0.9, 0.0, [1, 0]))


# --- left shift ---

def test_left_shift_matches_transpose_route():
    rng = np.random.default_rng(53)
    p = rand_poly(rng, 3, 3)
    lam, v = -0.4 + 0.2j, unit_vector(crandn(rng, 3))
    p = plant_left(p, lam, v)
    y = unit_vector(crandn(rng, 3))
    mu = 0.8 - 0.1j
    out = left_shift_poly(p, ShiftSpec(lam, mu, v, y, side="left"))

    # independent route: right shift of the coefficient-transposed polynomial
    pt = MatrixPoly([c.T for c in p.coeffs])
    spec_t = ShiftSpec(lam, mu, v.conj(), y.conj())
    out_t = right_shift_poly(pt, spec_t)
    ref = MatrixPoly([c.T for c in out_t.coeffs])
    scale = poly_scale(p)
    for a, b in zip(out.coeffs, ref.coeffs):
        assert np.linalg.norm(a - b) <= 1e-14 * scale


def test_left_shift_identity(p3):
    v = unit_vector(np.linalg.svd(evaluate(p3, 1.0))[0][:, -1])
    spec = ShiftSpec(1.0, 1.0, v, side="left")
    assert left_shift_poly(p3, spec) is p3


def test_left_shift_p3_oracle(p3):
    m = evaluate(p3, 1.0)
    v = unit_vector(np.linalg.svd(m)[0][:, -1])
    out = left_shift_poly(p3, ShiftSpec(1.0, 0.0, v, side="left"))
    rep = det_ratio_oracle(p3, out, removed=[1.0], added=[0.0])
    assert rep.passed


# --- Laurent shifts ---

def test_right_shift_laurent_lo_zero_matches_poly():
    rng = np.random.default_rng(59)
    p = rand_poly(rng, 3, 3)
    lam, u = 0.5 + 0.1j, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, u)
    spec = ShiftSpec(lam, -0.3, u)
    out_poly = right_shift_poly(p, spec)
    out_laurent = right_shift_laurent(p.to_laurent(), spec)
    assert out_laurent.lo == 0
    assert coeffs_equal(out_poly, out_laurent)


def test_right_shift_laurent_tridiagonal_closed_forms():
    rng = np.random.default_rng(61)
    p = rand_laurent(rng, 3, -1, 1)
    lam, u = 0.6 - 0.2j, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, u)
    mu = 0.1 + 0.2j
    spec = ShiftSpec(lam, mu, u)
    out = right_shift_laurent(p, spec)
    q = spec.q
    am1, a0, a1 = p.coeff(-1), p.coeff(0), p.coeff(1)
    scale = poly_scale(p)
    # direct formulas
    assert np.array_equal(out.coeff(1), a1)
    assert np.linalg.norm(out.coeff(0) - (a0 + (lam - mu) * a1 @ q)) <= 1e-13 * scale
    assert (
        np.linalg.norm(out.coeff(-1) - (am1 - (lam - mu) / lam * am1 @ q))
        <= 1e-13 * scale
    )
    # equivalent closed form using the eigenpair identity
    alt = am1 + (lam - mu) * (a0 + lam * a1) @ q
    assert np.linalg.norm(out.coeff(-1) - alt) <= 1e-12 * scale


def test_right_shift_laurent_seeded_oracle():
    rng = np.random.default_rng(67)
    p = rand_laurent(rng, 3, -1, 1)
    lam, u = 0.45 + 0.3j, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, u)
    out = right_shift_laurent(p, ShiftSpec(lam, -0.5j, u))
    assert out.lo == p.lo and out.hi == p.hi
    rep = det_ratio_oracle(p, out, removed=[lam], added=[-0.5j])
    assert rep.passed


def test_right_shift_laurent_zero_lambda_rejected():
    rng = np.random.default_rng(71)
    p = rand_laurent(rng, 2, -1, 1)
    u = unit_vector(crandn(rng, 2))
    with pytest.raises(ZeroLambdaWithNegativePowers):
        right_shift_laurent(p, ShiftSpec(0.0, 0.5, u))


def test_left_shift_laurent_seeded_oracle_and_identity():
    rng = np.random.default_rng(73)
    p = rand_laurent(rng, 3, -2, 2)
    lam, v = 0.7 + 0.1j, unit_vector(crandn(rng, 3))
    p = plant_left(p, lam, v)
    spec = ShiftSpec(lam, lam, v, side="left")
    assert coeffs_equal(left_shift_laurent(p, spec), p)
    out = left_shift_laurent(p, ShiftSpec(lam, 0.2, v, side="left"))
    rep = det_ratio_oracle(p, out, removed=[lam], added=[0.2])
    assert rep.passed


def test_left_shift_laurent_matches_transpose_route():
    rng = np.random.default_rng(79)
    p = rand_laurent(rng, 3, -1, 2)
    lam, v = -0.5 + 0.4j, unit_vector(crandn(rng, 3))
    p = plant_left(p, lam, v)
    y = unit_vector(crandn(rng, 3))
    mu = 1.2j
    out = left_shift_laurent(p, ShiftSpec(lam, mu, v, y, side="left"))
    pt = LaurentPoly(p.lo, [c.T for c in p.coeffs])
    out_t = right_shift_laurent(pt, ShiftSpec(lam, mu, v.conj(), y.conj()))
    scale = poly_scale(p)
    for a, b in zip(out.coeffs, (c.T for c in out_t.coeffs)):
        assert np.linalg.norm(a - b) <= 1e-14 * scale


# --- double shift ---

def _double_shift_instance(seed, lo=-1):
    rng = np.random.default_rng(seed)
    p = rand_laurent(rng, 3, -1, 1) if lo else rand_poly(rng, 3, 2)
    lam1, u = 0.5 + 0.2j, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam1, u)
    # a second, left eigenpair of the planted polynomial (z^-lo A(z) has the same)
    quad = MatrixPoly(p.coeffs)
    others = [
        q for q in polyeig(quad).finite() if abs(q.value - lam1) > 0.2 and abs(q.value) > 0.05
    ]
    lam2 = others[0].value
    v = unit_vector(np.linalg.svd(evaluate(p, lam2))[0][:, -1])
    return p, (lam1, u), (lam2, v)


def test_double_shift_matches_composition_exactly():
    # a double shift is a right shift and then a left shift of its result, bit for bit
    for seed, lo in [(83, -1), (89, -1), (97, -1), (83, 0), (89, 0), (97, 0)]:
        p, (l1, u), (l2, v) = _double_shift_instance(seed, lo)
        rs = ShiftSpec(l1, 0.1 + 0.1j, u)
        ls = ShiftSpec(l2, -1.5, v, side="left")
        both = double_shift_laurent(p, rs, ls)
        composed = left_shift_laurent(right_shift_laurent(p, rs), ls)
        assert coeffs_equal(both, composed)
        rep = det_ratio_oracle(p, both, removed=[l1, l2], added=[0.1 + 0.1j, -1.5])
        assert rep.passed


def test_double_shift_order_independent_to_1e13():
    p, (l1, u), (l2, v) = _double_shift_instance(89)
    rs = ShiftSpec(l1, -0.2j, u)
    ls = ShiftSpec(l2, 2.0 + 0.3j, v, side="left")
    right_first = double_shift_laurent(p, rs, ls)
    left_first = right_shift_laurent(left_shift_laurent(p, ls), rs)
    scale = poly_scale(p)
    for a, b in zip(right_first.coeffs, left_first.coeffs):
        assert np.linalg.norm(a - b) <= 1e-13 * scale


def test_double_shift_tridiagonal_closed_forms():
    p, (l1, u), (l2, v) = _double_shift_instance(97)
    m1, m2 = 0.15, 1.8j
    rs = ShiftSpec(l1, m1, u)
    ls = ShiftSpec(l2, m2, v, side="left")
    out = double_shift_laurent(p, rs, ls)
    q = rs.q
    s = ls.q
    am1, a0, a1 = p.coeff(-1), p.coeff(0), p.coeff(1)
    scale = poly_scale(p)
    a0_expected = a0 + (l1 - m1) * a1 @ q + (l2 - m2) * s @ a1
    am1_hat = am1 - (l1 - m1) / l1 * am1 @ q
    am1_expected = am1_hat - (l2 - m2) / l2 * s @ am1_hat
    assert np.array_equal(out.coeff(1), a1)
    assert np.linalg.norm(out.coeff(0) - a0_expected) <= 1e-13 * scale
    assert np.linalg.norm(out.coeff(-1) - am1_expected) <= 1e-13 * scale


def test_double_shift_identity():
    p, (l1, u), (l2, v) = _double_shift_instance(101)
    rs = ShiftSpec(l1, l1, u)
    ls = ShiftSpec(l2, l2, v, side="left")
    assert coeffs_equal(double_shift_laurent(p, rs, ls), p)


def test_double_shift_equal_lambda_on_a_simple_eigenvalue_fails_the_left_gate():
    # the left spec is gated on the right-shifted function, where a simple
    # lambda has moved to mu: no left vector makes it an eigenpair there, not
    # even the left null vector of A(lambda), which passes the gate on p
    p, (l1, u), (_, v) = _double_shift_instance(103)
    w = unit_vector(np.linalg.svd(evaluate(p, l1))[0][:, -1])
    rs = ShiftSpec(l1, 0.1, u)
    left_shift_laurent(p, ShiftSpec(l1, 0.2, w, side="left"))
    for y in (v, w):
        with pytest.raises(NotAnEigenpair, match="left eigenpair residual") as info:
            double_shift_laurent(p, rs, ShiftSpec(l1, 0.2, y, side="left"))
        assert info.value.name == "shift.eigenpair" and info.value.value > info.value.tol


def test_double_shift_clears_both_copies_of_p1s_double_root(p1):
    # p1's eigenvalue 1 is defective (w* A'(1) u = 0), so its left null vector
    # is also one of the right-shifted function at 1
    u, w = null_vectors(p1, 1.0, left=True)
    out = double_shift_laurent(p1, ShiftSpec(1.0, 0.2, u), ShiftSpec(1.0, 3.0, w, side="left"))
    assert match_moduli(polyeig(out).values(), [0.2, 1 / 3, 0.5, 3.0]) <= 1e-12
    assert det_ratio_oracle(p1, out, removed=[1, 1], added=[0.2, 3]).passed


def _qbd_double_shift(n, drift):
    """Right shift 1 -> 0 with (e, e/n), then left shift 1 -> 4 of a critical QBD."""
    p = LaurentPoly(-1, critical_qbd(3, n, drift))
    e = np.ones(n)
    w = null_vectors(p, 1.0, left=True)[1]
    return p, double_shift_laurent(p, ShiftSpec(1.0, 0.0, e, e / n),
                                   ShiftSpec(1.0, 4.0, w, side="left"))


@pytest.mark.parametrize("n", [20, 100])
def test_double_shift_clears_the_double_root_of_a_drift_zero_qbd(n):
    # at drift 0, z = 1 is a double root: after both shifts strict cyclic
    # reduction finds a canonical factorization
    p, out = _qbd_double_shift(n, 0.0)
    assert det_ratio_oracle(p, out, removed=[1, 1], added=[0, 4]).passed
    f = cr_quadratic(*out.coeffs)
    assert f.iterations <= 6 and max(f.rho_g, f.rho_r) < 1


@pytest.mark.parametrize("drift", [5e-4, -5e-4])
def test_double_shift_at_a_simple_qbd_root_fails_the_left_gate(drift):
    with pytest.raises(NotAnEigenpair) as info:
        _qbd_double_shift(20, drift)
    assert info.value.name == "shift.eigenpair"


# --- the side rule: every shift reads ShiftSpec.side ---

def _p3_right_left(p3):
    """(lam1, u) near 0.15 and (lam2, y) near 3 of p3: a right and a left eigenpair."""
    pairs = polyeig(p3, want_left=True).pairs
    right = min(pairs, key=lambda q: abs(q.value - 0.15))
    left = min(pairs, key=lambda q: abs(q.value - 3.0))
    return (right.value, right.right), (left.value, left.left)


def test_right_shift_rejects_a_left_spec(p3):
    _, (l2, y) = _p3_right_left(p3)
    with pytest.raises(DegenerateShift, match="needs a right spec, got left"):
        right_shift_laurent(p3, ShiftSpec(l2, 0.2, y, side="left"))


def test_right_shift_pencil_rejects_a_left_spec():
    a = np.diag([1.0, 2.0, 3.0])  # e1 is a right and a left eigenvector
    with pytest.raises(DegenerateShift, match="needs a right spec, got left"):
        right_shift_pencil(a, ShiftSpec(1.0, 5.0, [1.0, 0.0, 0.0], side="left"))


def test_left_shift_rejects_a_right_spec(p3):
    (l1, u), _ = _p3_right_left(p3)
    with pytest.raises(DegenerateShift, match="needs a left spec, got right"):
        left_shift_laurent(p3, ShiftSpec(l1, 0.1, u))


def test_double_shift_rejects_a_pair_that_is_not_right_then_left(p3):
    # a left eigenvector in a spec left at the default side "right" is not a left shift
    (l1, u), (l2, y) = _p3_right_left(p3)
    good = ShiftSpec(l1, 0.1, u), ShiftSpec(l2, 0.2, y, side="left")
    out = double_shift_laurent(p3, *good)
    assert det_ratio_oracle(p3, out, removed=[l1, l2], added=[0.1, 0.2]).passed
    for sides in (("right", "right"), ("left", "left"), ("left", "right")):
        pair = ShiftSpec(l1, 0.1, u, side=sides[0]), ShiftSpec(l2, 0.2, y, side=sides[1])
        with pytest.raises(DegenerateShift, match="a right spec and then a left spec"):
            double_shift_laurent(p3, *pair)


@pytest.mark.parametrize(
    "lo, laurent_lo_zero",
    [(0, False), (-1, False), (0, True)],
    ids=["MatrixPoly", "LaurentPoly", "LaurentPoly_lo0"],
)
@pytest.mark.parametrize(
    "shift, sides",
    [
        pytest.param(right_shift_poly, "r", id="right_shift_poly"),
        pytest.param(left_shift_poly, "l", id="left_shift_poly"),
        pytest.param(right_shift_laurent, "r", id="right_shift_laurent"),
        pytest.param(left_shift_laurent, "l", id="left_shift_laurent"),
        pytest.param(double_shift_laurent, "rl", id="double_shift_laurent"),
    ],
)
def test_shift_accepts_either_type_and_keeps_it(shift, sides, lo, laurent_lo_zero):
    p, (l1, u), (l2, v) = _double_shift_instance(211, lo)
    if laurent_lo_zero:
        p = LaurentPoly(0, p.coeffs)
    specs = {"r": ShiftSpec(l1, 0.1 - 0.2j, u), "l": ShiftSpec(l2, 1.5j, v, side="left")}
    out = shift(p, *(specs[s] for s in sides))
    assert type(out) is type(p)
    assert out.lo == p.lo and len(out.coeffs) == len(p.coeffs)
    rep = det_ratio_oracle(
        p, out, removed=[specs[s].lam for s in sides], added=[specs[s].mu for s in sides]
    )
    assert rep.passed, rep


# --- multishift ---

def test_multishift_pencil_examples():
    a = np.diag([1.0, 2.0, 3.0])
    u = np.eye(3)[:, :2]
    ms = MultiShiftSpec(u, np.diag([1.0, 2.0]), np.diag([7.0, 8.0]), u)
    out = multishift_pencil(a, ms)
    assert np.allclose(out, np.diag([7.0, 8.0, 3.0]), atol=1e-13)
    assert match_moduli(np.linalg.eigvals(out), [7.0, 8.0, 3.0]) <= 1e-10
    same = multishift_pencil(a, MultiShiftSpec(u, np.diag([1.0, 2.0]), np.diag([1.0, 2.0]), u))
    assert np.array_equal(same, a.astype(complex))


def test_multishift_m1_equals_single_right_shift_exactly():
    rng = np.random.default_rng(107)
    # pencil: both routes get the same (vector, dual) raw inputs
    a = crandn(rng, 4, 4)
    vals, vecs = np.linalg.eig(a)
    u = vecs[:, 0]
    vdual = ShiftSpec(vals[0], 0.3, u).dual  # some admissible dual with v* u = 1
    spec = ShiftSpec(vals[0], 0.3, u, vdual)
    ms = MultiShiftSpec(u.reshape(-1, 1), [[vals[0]]], [[0.3]], vdual.reshape(-1, 1))
    assert np.array_equal(multishift_pencil(a, ms), right_shift_pencil(a, spec))
    # polynomial
    p = rand_poly(rng, 3, 3)
    lam, uv = 0.4, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, uv)
    vdual = ShiftSpec(lam, -0.7j, uv).dual
    spec = ShiftSpec(lam, -0.7j, uv, vdual)
    ms = MultiShiftSpec(uv.reshape(-1, 1), [[lam]], [[-0.7j]], vdual.reshape(-1, 1))
    assert coeffs_equal(multishift_poly(p, ms), right_shift_poly(p, spec))
    # Laurent
    q = rand_laurent(rng, 3, -1, 1)
    q = plant_right(q, lam, uv)
    assert coeffs_equal(multishift_laurent(q, ms), right_shift_laurent(q, spec))


def test_a_one_column_packet_is_gated_once(monkeypatch):
    # the packet's own gate is the shift's: one pencil residual and no eigenpair
    # residual, with the single right shift's result bit for bit
    import mpshift.shifts

    rng = np.random.default_rng(109)
    a = crandn(rng, 4, 4)
    vals, vecs = np.linalg.eig(a)
    pencil_ms = MultiShiftSpec(vecs[:, :1], [[vals[0]]], [[0.3]])
    want_pencil = right_shift_pencil(a, ShiftSpec(vals[0], 0.3, vecs[:, 0], pencil_ms.v[:, 0]))
    lam, u = 0.4, unit_vector(crandn(rng, 3))
    q = plant_right(rand_laurent(rng, 3, -1, 1), lam, u)
    ms = MultiShiftSpec(u.reshape(-1, 1), [[lam]], [[-0.7j]])
    want = right_shift_laurent(q, ShiftSpec(lam, -0.7j, u, ms.v[:, 0]))

    calls = []
    for name in ("_pencil_residual", "pair_residual"):
        counted = getattr(mpshift.shifts, name)
        monkeypatch.setattr(mpshift.shifts, name,
                            lambda *args, f=counted, n=name: (calls.append(n), f(*args))[1])
    assert np.array_equal(multishift_pencil(a, pencil_ms), want_pencil)
    assert calls == ["_pencil_residual"]
    calls.clear()
    assert coeffs_equal(multishift_laurent(q, ms), want)
    assert calls == []


def test_multishift_poly_p1_packet_reproduces_shifted_fixture(p1):
    u = np.array([1.0, 0.0])
    ms = MultiShiftSpec(u.reshape(-1, 1), [[1.0]], [[0.0]], u.reshape(-1, 1))
    out = multishift_poly(p1, ms)
    ref = right_shift_poly(p1, ShiftSpec(1.0, 0.0, u, u))
    assert coeffs_equal(out, ref)
    assert np.array_equal(out.coeffs[0], -np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_multishift_poly_m2_oracle():
    rng = np.random.default_rng(109)
    p = rand_poly(rng, 4, 3)
    lams = [0.5 + 0.1j, -0.3 + 0.4j]
    us = [unit_vector(crandn(rng, 4)) for _ in lams]
    p = plant_right_pairs(p, list(zip(lams, us)))
    targets = [0.05, 1.4j]
    ms = MultiShiftSpec(np.column_stack(us), np.diag(lams), np.diag(targets))
    out = multishift_poly(p, ms)
    assert np.array_equal(out.coeffs[-1], p.coeffs[-1])
    rep = det_ratio_oracle(p, out, removed=lams, added=targets)
    assert rep.passed


def test_multishift_poly_identity_exact():
    rng = np.random.default_rng(113)
    p = rand_poly(rng, 4, 2)
    lams = [0.2, 0.6j]
    us = [unit_vector(crandn(rng, 4)) for _ in lams]
    p = plant_right_pairs(p, list(zip(lams, us)))
    ms = MultiShiftSpec(np.column_stack(us), np.diag(lams), np.diag(lams))
    assert coeffs_equal(multishift_poly(p, ms), p)


def test_multishift_laurent_m2_oracle():
    rng = np.random.default_rng(127)
    p = rand_laurent(rng, 4, -1, 1)
    lams = [0.5 - 0.2j, -0.45]
    us = [unit_vector(crandn(rng, 4)) for _ in lams]
    p = plant_right_pairs(p, list(zip(lams, us)))
    targets = [0.1j, 2.0]
    ms = MultiShiftSpec(np.column_stack(us), np.diag(lams), np.diag(targets))
    out = multishift_laurent(p, ms)
    assert (out.lo, out.hi) == (p.lo, p.hi)
    rep = det_ratio_oracle(p, out, removed=lams, added=targets)
    assert rep.passed


def test_multishift_laurent_singular_lambda_rejected():
    rng = np.random.default_rng(131)
    p = rand_laurent(rng, 4, -1, 1)
    us = [unit_vector(crandn(rng, 4)) for _ in range(2)]
    # singular Lambda is rejected before any residual check
    ms = MultiShiftSpec(np.column_stack(us), np.diag([0.0, 0.5]), np.diag([0.1, 0.2]))
    with pytest.raises(SingularLambda):
        multishift_laurent(p, ms)


def _big_packet_shift():
    # two eigenvalues of a polynomial with entries near 1e300 moved to +-1e305
    rng = np.random.default_rng(1)
    p = MatrixPoly([1e300 * rng.standard_normal((4, 4)) for _ in range(3)])
    pairs = [q for q in polyeig(p).pairs if not q.is_infinite][:2]
    u = np.column_stack([q.right for q in pairs])
    multishift_poly(p, MultiShiftSpec(u, np.diag([q.value for q in pairs]), np.diag([1e305, -1e305])))


BIG = np.diag([1.5e308, 1.0, 2.0])
E1 = np.eye(3)[0]


@pytest.mark.parametrize(
    "shift",
    [
        _big_packet_shift,
        lambda: right_shift_pencil(BIG, ShiftSpec(1.5e308, -1.5e308, E1)),
        lambda: multishift_pencil(BIG, MultiShiftSpec(E1, [[1.5e308]], [[-1.5e308]])),
        lambda: multishift_pencil(BIG, MultiShiftSpec(np.eye(3)[:, :2], np.diag([1.5e308, 1.0]),
                                                      np.diag([-1.5e308, 0.5]))),
    ],
    ids=["multishift_m2", "pencil", "multishift_pencil_m1", "multishift_pencil_m2"],
)
def test_overflowing_shift_fails_the_finite_gate(shift):
    # every shift result passes one gate; numpy's overflow warnings would be errors here
    with pytest.raises(ShiftOverflow, match="shifted coefficient entries are beyond double range") as caught:
        shift()
    assert caught.value.name == "shift.finite"


# --- shifts from / to infinity ---

def test_from_infinity_p2_first_step(p2):
    out = shift_from_infinity(p2, 1.0, [1, 0, 0])
    expected_a1 = np.array([[-1.0, 1.0, 1.0]] * 3, dtype=complex)
    assert np.array_equal(out.coeffs[1], expected_a1)
    assert np.array_equal(out.coeffs[0], p2.coeffs[0])
    assert np.array_equal(out.coeffs[2], p2.coeffs[2])


def test_from_infinity_p2_second_step(p2):
    mid = shift_from_infinity(p2, 1.0, [1, 0, 0])
    out = shift_from_infinity(mid, 0.5, [1, 0, 0])
    expected_a2 = np.array(
        [[2.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 0.0, 1.0]], dtype=complex
    )
    expected_a1 = np.array([[-3.0, 1.0, 1.0]] * 3, dtype=complex)
    assert np.array_equal(out.coeffs[2], expected_a2)
    assert np.array_equal(out.coeffs[1], expected_a1)
    assert abs(np.linalg.det(out.coeffs[2]) - 2.0) <= 1e-12
    vals = polyeig(out).values()
    expected = [0.5, 1.0, 1j, -1j, 1j * np.sqrt(3), -1j * np.sqrt(3)]
    assert match_moduli(vals, expected) <= 1e-7


def test_from_infinity_requires_kernel_vector(p2):
    with pytest.raises(NotInKernel):
        shift_from_infinity(p2, 1.0, [0, 1, 0])
    with pytest.raises(ZeroMu):
        shift_from_infinity(p2, 0.0, [1, 0, 0])


def test_from_infinity_oracle(p2):
    out = shift_from_infinity(p2, 1.0, [1, 0, 0])
    rep = det_ratio_oracle(p2, out, removed=[], added=[1.0], fit_constant=True)
    assert rep.passed
    assert abs(rep.constant - (-1.0)) <= 1e-10  # the identity carries -1/mu


def test_to_infinity_scalar():
    p = MatrixPoly([np.array([[-2.0]]), np.array([[1.0]])])  # z - 2
    out = shift_to_infinity(p, 2.0, [1.0])
    assert np.array_equal(out.coeffs[1], np.array([[0.0]], dtype=complex))
    assert np.array_equal(out.coeffs[0], np.array([[-2.0]], dtype=complex))


def test_to_infinity_p1(p1):
    pair = refine_pair(p1, 0.5, np.linalg.svd(evaluate(p1, 0.5))[2][-1].conj())
    out = shift_to_infinity(p1, pair.value, pair.right)
    assert np.linalg.norm(out.coeffs[-1] @ pair.right) <= 1e-10 * poly_scale(p1)
    vals = polyeig(out).values()
    assert match_moduli(vals, [complex(np.inf), 1 / 3, 1.0, 1.0]) <= 1e-6


def test_to_infinity_oracle_and_errors():
    rng = np.random.default_rng(137)
    p = rand_poly(rng, 3, 3)
    lam, u = 0.8 + 0.3j, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, u)
    out = shift_to_infinity(p, lam, u)
    rep = det_ratio_oracle(p, out, removed=[lam], added=[], fit_constant=True)
    assert rep.passed
    assert abs(rep.constant - (-lam)) <= 1e-8 * abs(lam)  # the identity carries -lambda
    with pytest.raises(ZeroLambda):
        shift_to_infinity(p, 0.0, u)


def test_to_infinity_matches_closed_form():
    rng = np.random.default_rng(193)
    p = rand_poly(rng, 4, 3)
    lam, u = 0.7 - 0.4j, unit_vector(crandn(rng, 4))
    p = plant_right(p, lam, u)
    y = crandn(rng, 4)
    out = shift_to_infinity(p, lam, u, y)
    q = ShiftSpec(lam, 0.0, u, y).q
    scale = poly_scale(p)
    # A~_i = A_i + sum_{k=0}^{i-1} lam^{-k-1} A_{i-k-1} Q
    for i in range(p.d + 1):
        ref = p.coeffs[i] + sum(lam ** (-k - 1) * p.coeffs[i - k - 1] @ q for k in range(i))
        assert np.linalg.norm(out.coeffs[i] - ref) <= 1e-13 * scale
    assert np.linalg.norm(out.coeffs[-1] @ u) <= 1e-12 * scale


def test_infinity_round_trip_restores_spectrum():
    rng = np.random.default_rng(139)
    p = rand_poly(rng, 3, 2)
    lam, u = 0.6 - 0.1j, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, u)
    gone = shift_to_infinity(p, lam, u)
    back = shift_from_infinity(gone, lam, u)
    rep = det_ratio_oracle(p, back, removed=[], added=[], fit_constant=True)
    assert rep.passed


def test_infinity_spellings_are_bit_equal():
    # one spec, so one normalization of the given dual, for both spellings
    for seed in range(24):
        rng = np.random.default_rng(3100 + seed)
        lam, mu = complex(*rng.uniform(0.2, 1.5, 2)), complex(*rng.uniform(0.2, 1.5, 2))
        u, y = unit_vector(crandn(rng, 4)), crandn(rng, 4)
        p = plant_right(rand_poly(rng, 4, 2), lam, u)
        assert coeffs_equal(shift_to_infinity(p, lam, u, y),
                            right_shift_poly(p, ShiftSpec(lam, INF, u, y))), seed
        q = plant_kernel_lead(rand_poly(rng, 4, 2), u)
        assert coeffs_equal(shift_from_infinity(q, mu, u, y),
                            right_shift_poly(q, ShiftSpec(INF, mu, u, y))), seed


E1 = [1.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "shift, error",
    [
        (lambda p: shift_from_infinity(LaurentPoly(-1, p.coeffs), 1.0, E1), DimensionMismatch),
        (lambda p: right_shift_laurent(LaurentPoly(-1, p.coeffs), ShiftSpec(INF, 1.0, E1)),
         DimensionMismatch),
        (lambda p: shift_to_infinity(LaurentPoly(-1, p.coeffs), 0.5, E1), DimensionMismatch),
        (lambda p: right_shift_laurent(LaurentPoly(-1, p.coeffs), ShiftSpec(0.5, INF, E1)),
         DimensionMismatch),
        (lambda p: shift_from_infinity(p, 0.0, E1), ZeroMu),
        (lambda p: right_shift_poly(p, ShiftSpec(INF, 0.0, E1)), ZeroMu),
        (lambda p: shift_to_infinity(p, 0.0, E1), ZeroLambda),
        (lambda p: right_shift_poly(p, ShiftSpec(0.0, INF, E1)), ZeroLambda),
        (lambda p: shift_from_infinity(p, INF, E1), ZeroMu),
        (lambda p: right_shift_poly(p, ShiftSpec(INF, INF, E1)), ZeroMu),
        (lambda p: left_shift_poly(p, ShiftSpec(INF, 1.0, E1, side="left")), ZeroMu),
        (lambda p: left_shift_poly(p, ShiftSpec(0.5, INF, E1, side="left")), ZeroMu),
        (lambda p: double_shift_laurent(p, ShiftSpec(INF, 1.0, E1),
                                        ShiftSpec(0.5, 0.1, E1, side="left")), ZeroMu),
        (lambda p: shift_to_infinity(p, INF, E1), ZeroLambda),
        (lambda p: shift_to_infinity(p, NAN, E1), ZeroLambda),
        (lambda p: shift_from_infinity(p, NAN, E1), ZeroMu),
    ],
    ids=[
        "from_laurent", "from_laurent_spec", "to_laurent", "to_laurent_spec",
        "from_mu_zero", "from_mu_zero_spec", "to_lambda_zero", "to_lambda_zero_spec",
        "from_both_infinite", "both_infinite_spec", "left_from", "left_to", "double_right_from",
        "to_infinite_lambda", "to_nan_lambda", "from_nan_mu",
    ],
)
def test_infinity_preconditions_on_both_spellings(p2, shift, error):
    with pytest.raises(error):
        shift(p2)


def test_generic_shift_routes_infinity(p2):
    via_route = right_shift_poly(p2, ShiftSpec(complex(np.inf), 1.0, [1, 0, 0]))
    direct = shift_from_infinity(p2, 1.0, [1, 0, 0])
    assert coeffs_equal(via_route, direct)

    rng = np.random.default_rng(149)
    p = rand_poly(rng, 3, 2)
    lam, u = 0.4, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, u)
    via_route = right_shift_poly(p, ShiftSpec(lam, complex(np.inf), u))
    direct = shift_to_infinity(p, lam, u)
    assert coeffs_equal(via_route, direct)

    with pytest.raises(ZeroMu):
        right_shift_poly(p, ShiftSpec(complex(np.inf), complex(np.inf), u))


# --- palindromic shift ---

def _palindromic_instance(seed):
    rng = np.random.default_rng(seed)
    p = palindromic_quad(rng, 3)
    pairs = sorted(polyeig(p).finite(), key=lambda q: abs(q.value))
    pair = next(q for q in pairs if abs(abs(q.value) - 1.0) > 0.05)
    pair = refine_pair(p, pair.value, pair.right)
    return p, pair


def test_palindromic_quadratic_hermitian_middle():
    p, pair = _palindromic_instance(151)
    mu = 0.2 + 0.1j
    out = palindromic_shift(p, pair.value, mu, pair.right)
    assert np.array_equal(out.coeffs[1], out.coeffs[1].conj().T)
    assert np.array_equal(out.coeffs[0], out.coeffs[2].conj().T)


def test_palindromic_identity(p1):
    p, pair = _palindromic_instance(157)
    assert palindromic_shift(p, pair.value, pair.value, pair.right) is p


def test_palindromic_seeded_oracle_and_structure():
    p, pair = _palindromic_instance(163)
    lam = complex(pair.value)
    mu = 0.3 - 0.2j
    out = palindromic_shift(p, lam, mu, pair.right)
    removed = [lam, 1.0 / lam.conjugate()]
    added = [mu, 1.0 / mu.conjugate()]
    rep = det_ratio_oracle(p, out, removed=removed, added=added, fit_constant=True)
    assert rep.passed
    d = out.d
    for i in range(d + 1):
        assert np.array_equal(out.coeffs[i], out.coeffs[d - i].conj().T)


def test_palindromic_lambda_zero_closed_form():
    rng = np.random.default_rng(167)
    # palindromic quadratic with singular A0: the pair (0, infinity) exists
    a0 = crandn(rng, 3, 3)
    u = unit_vector(crandn(rng, 3))
    a0 = a0 - np.outer(a0 @ u, u.conj()) / np.vdot(u, u)  # A0 u = 0
    r = crandn(rng, 3, 3)
    p = MatrixPoly([a0, r + r.conj().T, a0.conj().T])
    mu = 0.4 + 0.1j
    out = palindromic_shift(p, 0.0, mu, u)
    rep = det_ratio_oracle(
        p, out, removed=[0.0], added=[mu, 1.0 / mu.conjugate()], fit_constant=True
    )
    assert rep.passed
    for i in range(3):
        assert np.array_equal(out.coeffs[i], out.coeffs[2 - i].conj().T)


def test_palindromic_cubic_oracle_and_structure():
    rng = np.random.default_rng(197)
    a0, a1 = crandn(rng, 3, 3), crandn(rng, 3, 3)
    p = MatrixPoly([a0, a1, a1.conj().T, a0.conj().T])
    pair = next(
        q for q in sorted(polyeig(p).finite(), key=lambda q: abs(q.value))
        if abs(abs(q.value) - 1.0) > 0.05
    )
    pair = refine_pair(p, pair.value, pair.right)
    lam, mu = complex(pair.value), 0.2 + 0.3j
    out = palindromic_shift(p, lam, mu, pair.right)
    removed = [lam, 1.0 / lam.conjugate()]
    added = [mu, 1.0 / mu.conjugate()]
    rep = det_ratio_oracle(p, out, removed=removed, added=added, fit_constant=True)
    assert rep.passed, rep
    for i in range(4):
        assert np.array_equal(out.coeffs[i], out.coeffs[3 - i].conj().T)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [1e5, 1e10])
def test_palindromic_shift_beyond_double_range_fails_its_gate(mu):
    # the kernel runs on prescaled coefficients, so only the result multiplied
    # back overflows; at mu = 1e10 the two prescales' product is below 2^-1074
    p = real_palindromic_quad(np.random.default_rng(0), 3, 1e307)
    pair = polyeig(p).finite()[0]
    with pytest.raises(ShiftOverflow) as caught:
        palindromic_shift(p, pair.value, mu, pair.right)
    assert caught.value.name == "shift.finite"


@pytest.mark.filterwarnings("error")
def test_palindromic_shift_near_the_top_of_double_range():
    # the pair (lam, 1/conj(lam)) moves to (1e-200, 1e200); the result stays near 1e307
    p = real_palindromic_quad(np.random.default_rng(0), 3, 1e307)
    pair = polyeig(p).finite()[0]
    lam, mu = complex(pair.value), 1e-200
    out = palindromic_shift(p, lam, mu, pair.right)
    rep = det_ratio_oracle(p, out, removed=[lam, 1 / lam.conjugate()], added=[mu, 1 / mu],
                           fit_constant=True)
    assert rep.passed, rep


def test_palindromic_rejects_structure_violation(p1):
    with pytest.raises(NotPalindromic):
        palindromic_shift(p1, 1.0, 0.0, [1, 0])


def test_palindromic_eigenpair_gate_reads_as_every_right_shift_gate():
    p = palindromic_quad(np.random.default_rng(5), 3)
    with pytest.raises(NotAnEigenpair, match=r"^right eigenpair residual \S+ exceeds 1e-08$") as pal:
        palindromic_shift(p, 0.5, 0.1, np.ones(3))
    with pytest.raises(NotAnEigenpair) as right:
        right_shift_poly(p, ShiftSpec(0.5, 0.1, np.ones(3)))
    assert str(pal.value) == str(right.value)


def test_palindromic_warns_on_unit_modulus_pair():
    # a unit-modulus eigenvalue is self-paired (lambda = 1/conj(lambda)); the
    # shift warns and, since the pair genuinely degenerates, refuses
    rng = np.random.default_rng(173)
    p = palindromic_quad(rng, 3)
    pair = min(polyeig(p).finite(), key=lambda q: abs(abs(q.value) - 1.0))
    if abs(abs(pair.value) - 1.0) > 1e-10:
        pytest.skip("no unit-modulus eigenvalue in this seeded instance")
    with pytest.warns(UserWarning):
        with pytest.raises(NotAnEigenpair):
            palindromic_shift(p, pair.value, 0.5 * pair.value, pair.right)


# --- structural invariants across the board ---

def test_identity_at_mu_equals_lambda_all_ops():
    rng = np.random.default_rng(179)
    p = rand_poly(rng, 3, 2)
    lam, u = 0.5, unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, u)
    assert right_shift_poly(p, ShiftSpec(lam, lam, u)) is p
    lp = rand_laurent(rng, 3, -1, 1)
    lp = plant_right(lp, lam, u)
    assert right_shift_laurent(lp, ShiftSpec(lam, lam, u)) is lp
    lpl = plant_left(lp, lam, u)
    assert left_shift_laurent(lpl, ShiftSpec(lam, lam, u, side="left")) is lpl


def test_multishift_laurent_identity_exact():
    rng = np.random.default_rng(191)
    lams = [0.4, -0.3 + 0.5j]
    us = [unit_vector(crandn(rng, 4)) for _ in lams]
    p = plant_right_pairs(rand_laurent(rng, 4, -1, 1), list(zip(lams, us)))
    ms = MultiShiftSpec(np.column_stack(us), np.diag(lams), np.diag(lams))
    assert multishift_laurent(p, ms) is p
