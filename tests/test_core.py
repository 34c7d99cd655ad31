"""Core containers, evaluation, determinants, serialization, and the oracle."""

import cmath
import json
import math
import re

import numpy as np
import pytest

from mpshift import (
    LaurentPoly,
    MatrixPoly,
    ShiftSpec,
    det_at,
    det_ratio_oracle,
    evaluate,
    read_poly,
    reverse,
    right_shift_laurent,
    right_shift_poly,
    solve_unilateral,
    unit_vector,
    write_poly,
)
from mpshift.errors import (
    DegeneratePolynomial,
    DegenerateShift,
    DimensionMismatch,
    ParseError,
    ZeroAtNegativePower,
)
from mpshift import core
from mpshift.cli import array_json, matrix_json

from conftest import crandn, mp_json_reference, plant_right, rand_laurent, rand_poly, shared_kernel_poly


# --- evaluation ---

def test_evaluate_p1_at_one_is_singular(p1):
    m = evaluate(p1, 1.0)
    assert np.array_equal(m, np.array([[0.0, 2.0], [0.0, 1.0]], dtype=complex))
    assert np.linalg.norm(m @ np.array([1.0, 0.0])) == 0.0


def test_evaluate_constant_poly():
    a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = MatrixPoly([a0])
    for z in (0.0, 1.0, 2j, -3.5 + 1j):
        assert np.array_equal(evaluate(p, z), a0.astype(complex))


def test_evaluate_p2_at_zero(p2):
    expected = np.array([[1.0, 0.0, -1.0], [1.0, 2.0, 0.0], [1.0, 1.0, 1.0]])
    assert np.array_equal(evaluate(p2, 0.0), expected.astype(complex))


def test_evaluate_laurent_at_zero_rejected():
    p = LaurentPoly(-1, [np.eye(2)] * 3)
    with pytest.raises(ZeroAtNegativePower):
        evaluate(p, 0.0)


@pytest.mark.parametrize("lo", [0, -1, -3])
def test_evaluate_stack_matches_each_point(lo):
    rng = np.random.default_rng(17 - lo)
    p = rand_laurent(rng, 4, lo, 2)
    pts = np.array([0.7, -1.3, 2j, *(crandn(rng, 15) * 10.0 ** rng.uniform(-1, 1, 15))])
    stack = evaluate(p, pts)
    assert stack.shape == (len(pts), 4, 4)
    for m, z in zip(stack, pts):
        assert np.array_equal(m, evaluate(p, z))
        # the scalar path keeps the rounding of Python's complex power
        assert np.array_equal(m, core.horner(p.coeffs, z) * complex(z) ** lo)
    assert np.array_equal(evaluate(p, pts.reshape(3, 6)), stack.reshape(3, 6, 4, 4))
    if lo < 0:
        with pytest.raises(ZeroAtNegativePower):
            evaluate(p, np.array([1.0, 0.0]))
    constant = MatrixPoly(p.coeffs[:1])
    assert np.array_equal(evaluate(constant, pts), np.broadcast_to(p.coeffs[0], stack.shape))


def test_horner_matches_naive_power_sum():
    rng = np.random.default_rng(5)
    for _ in range(12):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(0, 7))
        p = rand_poly(rng, n, d)
        z = complex(crandn(rng))
        naive = sum(z**i * c for i, c in enumerate(p.coeffs))
        got = evaluate(p, z)
        assert np.linalg.norm(got - naive) <= 1e-13 * max(np.linalg.norm(naive), 1.0)


def test_laurent_evaluation_matches_power_sum():
    rng = np.random.default_rng(6)
    p = LaurentPoly(-2, [crandn(rng, 3, 3) for _ in range(5)])
    z = 0.7 + 0.4j
    naive = sum(z ** (p.lo + k) * c for k, c in enumerate(p.coeffs))
    assert np.linalg.norm(evaluate(p, z) - naive) <= 1e-13 * np.linalg.norm(naive)


# --- working dtype ---

def test_as_working_is_real_exactly_when_no_imaginary_part():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((3, 3))
    signed = np.array([[complex(1.5, -0.0), complex(-0.0, 0.0)]])
    a, b, c = core.as_working(x, x.astype(complex), signed)
    assert a.dtype == b.dtype == c.dtype == np.float64
    assert np.array_equal(b, x) and b.flags.c_contiguous
    assert np.array_equal(np.signbit(c), [[False, True]])  # real parts kept bit for bit
    assert core.as_working(np.eye(2, dtype=int))[0].dtype == np.float64
    # one tiny imaginary part anywhere sends every array to complex
    tiny = x.astype(complex)
    tiny[2, 1] += 1e-300j
    a, b = core.as_working(x, tiny)
    assert a.dtype == b.dtype == np.complex128
    assert np.array_equal(a, x) and np.array_equal(b, tiny)


def test_equation_residual_same_on_real_and_complex_paths(p3):
    # a perturbed solvent, so the residual is well above roundoff; rotating
    # the coefficients by e^{0.7i} keeps it and forces the complex path
    g = solve_unilateral(p3).g + 1e-3
    rotated = MatrixPoly([np.exp(0.7j) * c for c in p3.coeffs])
    real = core.equation_residual(p3, g)
    assert real > 1e-4
    assert abs(core.equation_residual(rotated, g) - real) <= 1e-13 * real


@pytest.mark.parametrize("alpha", [1e-160, 1e160, 1e300])
def test_equation_residual_sees_a_perturbed_solvent_at_every_scale(p3, alpha):
    # unscaled Frobenius norms would read 0.0 (1e-160, 1e160) or NaN (1e300) here
    g = solve_unilateral(p3).g
    scaled = MatrixPoly([alpha * c for c in p3.coeffs])
    assert core.equation_residual(scaled, g) <= 1e-10
    assert core.equation_residual(scaled, g * (1 + 1e-6)) > 1e-10


def test_equation_residual_keeps_its_bits_at_ordinary_scales(p3):
    g = solve_unilateral(p3).g * (1 + 1e-6)
    for alpha in (1.0, 3e-7, 5e4):
        coeffs = [alpha * c.real for c in p3.coeffs]
        unscaled = np.linalg.norm(core.matrix_horner(coeffs, g.real)) / sum(
            np.linalg.norm(c) for c in coeffs
        )
        assert core.equation_residual(MatrixPoly(coeffs), g) == unscaled


# --- eigenpair residual ---

@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("lam", [0.6 - 0.3j, -1.7j], ids=["inside", "outside"])
@pytest.mark.parametrize("lo", [0, -1, -2])
def test_pair_residual_matches_power_sum(lo, lam, side):
    rng = np.random.default_rng(241 - lo)
    p = rand_laurent(rng, 4, lo, 2)
    u = crandn(rng, 4)
    a = sum(lam ** (lo + k) * c for k, c in enumerate(p.coeffs))
    naive = a @ u if side == "right" else u.conj() @ a
    scale = sum(np.linalg.norm(c) * abs(lam) ** (lo + k) for k, c in enumerate(p.coeffs))
    expected = np.linalg.norm(naive) / (np.linalg.norm(u) * scale)
    assert abs(core.pair_residual(p, lam, u, side) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("side", ["right", "left"])
def test_pair_residual_at_infinity_is_the_leading_kernel_residual(side):
    rng = np.random.default_rng(251)
    p = rand_laurent(rng, 3, -1, 2)
    u = crandn(rng, 3)
    lead = p.coeffs[-1]
    vec = lead @ u if side == "right" else u.conj() @ lead
    expected = np.linalg.norm(vec) / (np.linalg.norm(lead) * np.linalg.norm(u))
    assert core.pair_residual(p, core.INF, u, side) == pytest.approx(expected, rel=1e-15)
    # any non-finite value with no NaN part is the point at infinity
    assert core.pair_residual(p, complex(np.inf, np.inf), u, side) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("modulus", [1e100, 1e200, 1e300])
@pytest.mark.parametrize("side", ["right", "left"])
def test_pair_residual_is_finite_at_huge_eigenvalues(p1, modulus, side):
    # sum_i ||A_i|| |lam|^i itself overflows here (a Python float from 1e200
    # on); warnings are errors, so an overflow inside numpy fails the test too
    u = np.array([1.0, 0.0])
    at_inf = core.pair_residual(p1, core.INF, u, side)
    for lam in (modulus, -1j * modulus):
        assert core.pair_residual(p1, lam, u, side) == pytest.approx(at_inf, rel=1e-14)
    assert 0.0 < at_inf < 1.0


@pytest.mark.parametrize("alpha", [1e-300, 1e-160, 1e160, 1e300])
def test_pair_residual_does_not_depend_on_the_coefficient_scale(alpha):
    rng = np.random.default_rng(257)
    p = rand_laurent(rng, 3, -1, 1)
    scaled = LaurentPoly(-1, [alpha * c for c in p.coeffs])
    u = crandn(rng, 3)
    for lam in (0.5 + 0.5j, 3.0, core.INF):
        for side in ("right", "left"):
            expected = core.pair_residual(p, lam, u, side)
            assert core.pair_residual(scaled, lam, u, side) == pytest.approx(expected, rel=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [1e-300, 1e-200, 1e200, 1e300, 2.0**-1000, 2.0**1000])
def test_pair_residual_does_not_depend_on_the_vector_scale(p1, beta):
    # ||u|| under- or overflowed before the vector was prescaled: (1, 0) is an
    # eigenvector of p1 at 1 whatever its length
    exact = np.frexp(beta)[0] == 0.5
    for lam in (0.5, core.INF):
        for side in ("right", "left"):
            expected = core.pair_residual(p1, lam, [1.0, 0.0], side)
            got = core.pair_residual(p1, lam, [beta, 0.0], side)
            assert got == expected if exact else abs(got - expected) <= 1e-15 * expected
    assert core.pair_residual(p1, 1.0, [beta, 0.0]) <= 1e-16


@pytest.mark.filterwarnings("error")
def test_unit_vector_does_not_depend_on_the_vector_scale():
    v = crandn(np.random.default_rng(269), 5)
    want = unit_vector(v)
    for beta in (2.0**-1000, 2.0**-3, 2.0**1000):
        assert unit_vector(beta * v).tobytes() == want.tobytes()
    for beta in (1e-300, 1e-200, 1e200, 1e300):
        assert np.allclose(unit_vector(beta * v), want, rtol=0, atol=1e-15)


def test_pair_residual_zero_vector_nan_value_and_zero_with_negative_powers():
    p = rand_laurent(np.random.default_rng(263), 2, -1, 1)
    assert core.pair_residual(p, 0.5, np.zeros(2)) == np.inf
    assert np.isnan(core.pair_residual(p, complex(np.nan, 0.0), np.ones(2)))
    with pytest.raises(ZeroAtNegativePower, match="radius 0 with negative powers"):
        core.pair_residual(p, 0.0, np.ones(2))
    q = MatrixPoly(p.coeffs)  # lo = 0: lambda = 0 reads A_0 u
    expected = np.linalg.norm(q.coeffs[0] @ np.ones(2)) / (np.linalg.norm(q.coeffs[0]) * np.sqrt(2))
    assert core.pair_residual(q, 0.0, np.ones(2)) == pytest.approx(expected, rel=1e-15)


# --- rank test ---

def test_rcond_is_a_scale_invariant_singular_value_ratio():
    m = crandn(np.random.default_rng(3), 6, 6)
    s = np.linalg.svd(m, compute_uv=False)
    assert core.rcond(m) == s[-1] / s[0]
    for alpha in (1e-300, 1e-150, 1e150, 1e300):
        assert core.rcond(alpha * m) == pytest.approx(s[-1] / s[0], rel=1e-12)
    assert core.rcond(np.diag([1.0, 1e-20])) == 1e-20


def test_rcond_of_zero_and_nonfinite_matrices():
    assert core.rcond(np.zeros((3, 3))) == 0.0
    assert np.isnan(core.rcond(np.array([[1.0, np.inf], [0.0, 1.0]])))
    assert np.isnan(core.rcond(np.array([[1.0, 0.0], [np.nan, 1.0]], dtype=complex)))


# --- determinants ---

def test_det_at_p1_eigenvalue(p1):
    m = evaluate(p1, 1.0)
    assert abs(det_at(p1, 1.0)) <= 1e-12 * np.linalg.norm(m) ** 2


def test_det_identity_pencil():
    p = MatrixPoly([np.zeros((2, 2)), np.eye(2)])  # z I
    assert abs(det_at(p, 2.0) - 4.0) <= 1e-12


def test_det_at_p2_at_i(p2):
    m = evaluate(p2, 1j)
    assert abs(det_at(p2, 1j)) <= 1e-12 * np.linalg.norm(m) ** 3


def test_det_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(6):
        p = rand_poly(rng, 3, 2)
        q = rand_poly(rng, 3, 2)
        z = complex(crandn(rng))
        prod_det = complex(np.linalg.det(evaluate(p, z) @ evaluate(q, z)))
        sep = det_at(p, z) * det_at(q, z)
        assert abs(prod_det - sep) <= 1e-10 * max(abs(sep), 1e-30)


# --- reverse ---

def test_reverse_involution():
    rng = np.random.default_rng(8)
    p = rand_poly(rng, 3, 4)
    back = reverse(reverse(p))
    for a, b in zip(p.coeffs, back.coeffs):
        assert np.array_equal(a, b)


def test_reverse_p2_constant_is_singular_lead(p2):
    r = reverse(p2)
    assert np.array_equal(r.coeffs[0], p2.coeffs[2])
    assert abs(np.linalg.det(r.coeffs[0])) == 0.0
    assert np.linalg.norm(r.coeffs[0] @ np.array([1, 0, 0])) == 0.0


def test_reverse_p1_has_reciprocal_eigenvalues(p1):
    r = reverse(p1)
    for z in (3.0, 2.0, 1.0):
        m = evaluate(r, z)
        assert abs(det_at(r, z)) <= 1e-10 * np.linalg.norm(m) ** 2


# --- normalization ---

def test_unit_vector_normalization():
    v = unit_vector(np.array([0.0, -2.0j, 1.0]))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
    k = np.argmax(np.abs(v) > 1e-12)
    assert v[k].imag == 0.0 and v[k].real > 0


def test_unit_vector_rejects_zero():
    with pytest.raises(ValueError):
        unit_vector(np.zeros(3))


# --- serialization ---

def test_round_trip_is_bit_exact(tmp_path, p3):
    path = tmp_path / "p3.mp.json"
    write_poly(p3, path)
    back = read_poly(path)
    assert isinstance(back, MatrixPoly)
    assert back.d == 4 and back.n == 5
    for a, b in zip(p3.coeffs, back.coeffs):
        assert np.array_equal(a, b)
    path2 = tmp_path / "again.mp.json"
    write_poly(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_laurent_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    p = LaurentPoly(-1, [crandn(rng, 2, 2) for _ in range(3)])
    path = tmp_path / "q.mp.json"
    write_poly(p, path)
    back = read_poly(path)
    assert isinstance(back, LaurentPoly) and back.lo == -1
    for a, b in zip(p.coeffs, back.coeffs):
        assert np.array_equal(a, b)


def test_read_p1_file(tmp_path, p1):
    path = tmp_path / "p1.mp.json"
    write_poly(p1, path)
    back = read_poly(path)
    assert back.d == 2 and back.n == 2


def test_ragged_rows_raise_parse_error(tmp_path):
    path = tmp_path / "bad.mp.json"
    path.write_text(
        '{"n": 2, "lo": 0, "coeffs": [[[[1,0],[0,0]],[[0,0]]]]}', encoding="utf-8"
    )
    with pytest.raises(ParseError):
        read_poly(path)


def test_wrong_dimension_raises(tmp_path):
    path = tmp_path / "dim.mp.json"
    path.write_text(
        '{"n": 3, "lo": 0, "coeffs": [[[[1,0],[0,0]],[[0,0],[1,0]]]]}', encoding="utf-8"
    )
    with pytest.raises(DimensionMismatch):
        read_poly(path)


def test_empty_file_raises_parse_error(tmp_path):
    path = tmp_path / "empty.mp.json"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        read_poly(path)


# Each case pins the reader's exception and full message, location included;
# the whole-array check must accept none of these files.
MALFORMED = [
    ("true", '[[[[true,0]]]]', 1, ParseError,
     "coeffs[0][0][0]: expected a [re, im] pair, got [True, 0]"),
    ("string", '[[[["1",0]]]]', 1, ParseError,
     "coeffs[0][0][0]: expected a [re, im] pair, got ['1', 0]"),
    ("null", '[[[[1,0],[0,0]],[[0,0],null]]]', 2, ParseError,
     "coeffs[0][1][1]: expected a [re, im] pair, got None"),
    ("pair1", '[[[[1]]]]', 1, ParseError,
     "coeffs[0][0][0]: expected a [re, im] pair, got [1]"),
    ("pair3", '[[[[1,0,0]]]]', 1, ParseError,
     "coeffs[0][0][0]: expected a [re, im] pair, got [1, 0, 0]"),
    ("ragged row", '[[[[1,0],[0,0]],[[0,0]]]]', 2, ParseError,
     "coeffs[0]: ragged or malformed rows"),
    ("row is a number", '[[[[1,0],[0,0]],5]]', 2, ParseError,
     "coeffs[0]: ragged or malformed rows"),
    ("matrix is a number", '[[[[1,0]]],7]', 1, ParseError,
     "coeffs[1]: expected an array of rows"),
    ("empty matrix", '[[]]', 1, DimensionMismatch,
     "coeffs[0]: shape 0x0, expected 1x1"),
    ("n disagrees", '[[[[1,0],[0,0]],[[0,0],[1,0]]]]', 3, DimensionMismatch,
     "coeffs[0]: shape 2x2, expected 3x3"),
]


@pytest.mark.parametrize(
    "coeffs, n, exc, message", [case[1:] for case in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_malformed_coefficients_rejected_with_location(tmp_path, coeffs, n, exc, message):
    path = tmp_path / "bad.mp.json"
    path.write_text(f'{{"n": {n}, "lo": 0, "coeffs": {coeffs}}}', encoding="utf-8")
    with pytest.raises(exc) as info:
        read_poly(path)
    assert type(info.value) is exc and str(info.value) == message


@pytest.mark.parametrize(
    "entry",
    ["[NaN, 0]", "[0, Infinity]", "[-Infinity, 0]", "[1e999, 0]", "[0, -1e999]",
     "[1" + "0" * 400 + ", 0]"],
    ids=["nan", "inf", "-inf", "1e999", "-1e999", "int-1e400"],
)
def test_nonfinite_or_out_of_range_entry_is_parse_error(tmp_path, entry):
    good = "[[1, 0], [0, 0]], [[0, 0], [1, 0]]"
    bad = f"[[1, 0], {entry}], [[0, 0], [1, 0]]"
    path = tmp_path / "bad.mp.json"
    path.write_text(
        f'{{"n": 2, "lo": -1, "coeffs": [[{good}], [{bad}], [{good}]]}}', encoding="utf-8"
    )
    with pytest.raises(ParseError, match=re.escape("coeffs[1][0][1]:")):
        read_poly(path)


def test_integer_beyond_digit_limit_is_parse_error(tmp_path):
    path = tmp_path / "bad.mp.json"
    path.write_text('{"n": 1, "lo": 0, "coeffs": [[[[1' + "0" * 5000 + ', 0]]]]}', encoding="utf-8")
    with pytest.raises(ParseError):
        read_poly(path)


def test_nonfinite_in_memory_poly_still_value_error():
    with pytest.raises(ValueError, match="non-finite"):
        MatrixPoly([np.array([[np.nan, 0.0], [0.0, 1.0]])])


def test_integer_entries_read_as_complex(tmp_path):
    pairs = [[1, 0], [-3, 2], [2**53 + 1, -(2**64) - 3], [10**300, 0.5]]
    path = tmp_path / "ints.mp.json"
    path.write_text(
        json.dumps({"n": 2, "lo": 0, "coeffs": [[pairs[:2], pairs[2:]]]}), encoding="utf-8"
    )
    got = read_poly(path).coeffs[0]
    expected = np.array([[complex(*pairs[0]), complex(*pairs[1])],
                         [complex(*pairs[2]), complex(*pairs[3])]])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


SPECIAL_DOUBLES = [
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -3.0, 1e16, 2.0**60, 0.1,
]


@pytest.mark.parametrize("lo", [0, -1])
@pytest.mark.parametrize("n", [1, 3, 50])
def test_write_poly_matches_per_entry_encoder(tmp_path, n, lo):
    rng = np.random.default_rng(1000 + n)
    flat = rng.standard_normal(6 * n * n * 2) * 10.0 ** rng.integers(-300, 300, 6 * n * n * 2)
    flat[: len(SPECIAL_DOUBLES)] = SPECIAL_DOUBLES
    flat[-2:] = [-0.0, -0.0]
    coeffs = flat.view(complex).reshape(6, n, n)
    p = MatrixPoly(coeffs) if lo == 0 else LaurentPoly(lo, coeffs)
    path = tmp_path / "w.mp.json"
    write_poly(p, path)
    assert path.read_bytes() == mp_json_reference(p).encode("utf-8")
    back = read_poly(path)
    assert np.array_equal(np.array(back.coeffs).view(np.uint64), coeffs.view(np.uint64))


@pytest.mark.parametrize("imag", ["plus_zero", "minus_zero", "mixed_zeros"])
def test_write_poly_zero_imaginary_parts_match_per_entry_encoder(tmp_path, imag):
    # real data write their imaginary parts as one literal; the bytes stay the encoder's
    rng = np.random.default_rng(31)
    coeffs = rng.standard_normal((3, 5, 5)).astype(complex)
    coeffs.imag = {"plus_zero": 0.0, "minus_zero": -0.0,
                   "mixed_zeros": np.where(rng.random((3, 5, 5)) < 0.5, 0.0, -0.0)}[imag]
    p = LaurentPoly(-1, coeffs)
    path = tmp_path / "w.mp.json"
    write_poly(p, path)
    assert path.read_bytes() == mp_json_reference(p).encode("utf-8")
    back = read_poly(path)
    assert np.array_equal(np.array(back.coeffs).view(np.uint64), coeffs.view(np.uint64))


# --- float text: orjson's digits against repr ---

def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def float_text_corpus():
    """Seeded finite doubles: random bit patterns, the extremes, the edges of the
    re-formatted ranges and the 1-ulp neighbours of the powers of ten around them."""
    bits = np.random.default_rng(2024).integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False)
    random = bits.view(float)
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             9.999999999999999e-05, 1e-4, 1e-5, 9999999999999998.0, 1e16]
    tens = [x for k in range(-6, 18) for x in _neighbours(10.0**k)]
    corpus = np.concatenate([random[np.isfinite(random)], edges, tens])
    return np.concatenate([corpus, -corpus])


def test_float_texts_equal_repr():
    # a change of orjson's layout fails here, not in a written file
    corpus = float_text_corpus()
    assert corpus.size >= 400_000
    assert core.float_texts(corpus) == [repr(x) for x in corpus.tolist()]
    assert core.float_texts(np.array([math.inf, -math.inf, math.nan])) == ["inf", "-inf", "nan"]
    assert core.float_texts(np.array([], dtype=float)) == []


def reference_pairs(arr):
    """The ``%r`` renderer's ``(imag, floats)``: imag a zero literal or ``%r``."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    imag = arr.imag.tobytes()
    for literal in ("0.0", "-0.0"):
        if imag == np.float64(literal).tobytes() * arr.size:
            return literal, arr.real.ravel().tolist()
    return "%r", arr.view(float).ravel().tolist()


def reference_array_json(mat):
    """``cli.array_json`` as one ``%r`` template, before the orjson texts."""
    mat = np.asarray(mat, dtype=complex)
    imag, floats = reference_pairs(mat)
    leaf = f"[%r, {imag}]"
    for width in reversed(mat.shape):
        leaf = "[" + ", ".join([leaf] * width) + "]"
    text = leaf % tuple(floats)
    return json.dumps(matrix_json(mat)) if "n" in text else text


def reference_write_poly(p):
    """The ``.mp.json`` text of ``core.write_poly`` as one ``%r`` template."""
    n = p.n
    imag, floats = reference_pairs(p.coeffs)
    pair = f"    [\n     %r,\n     {imag}\n    ]"
    row = "   [\n" + ",\n".join([pair] * n) + "\n   ]"
    mat = "  [\n" + ",\n".join([row] * n) + "\n  ]"
    body = ",\n".join([mat] * len(p.coeffs))
    return f'{{\n "n": {n},\n "lo": {p.lo},\n "coeffs": [\n' + body % tuple(floats) + "\n ]\n}\n"


def _text_cases():
    rng = np.random.default_rng(77)
    real = rng.standard_normal((3, 4, 4)) * 10.0 ** rng.integers(-8, 20, (3, 4, 4))
    cases = {"real": real.astype(complex),
             "complex": real + 1j * rng.standard_normal((3, 4, 4)),
             "tiny": (rng.random((3, 4, 4)) * 1e-5) * (1 - 2j),
             "huge": rng.standard_normal((3, 4, 4)) * 1e300 + 1e17j}
    for name, zero in (("plus_zero", 0.0), ("minus_zero", -0.0)):
        cases[name] = real.astype(complex)
        cases[name].imag = zero
    return cases


@pytest.mark.parametrize("case", sorted(_text_cases()))
def test_writers_equal_the_repr_template_renderer(tmp_path, case):
    coeffs = _text_cases()[case]
    assert array_json(coeffs) == reference_array_json(coeffs)
    assert array_json(coeffs[0]) == reference_array_json(coeffs[0])
    p = LaurentPoly(-1, coeffs)
    write_poly(p, tmp_path / "w.mp.json")
    assert (tmp_path / "w.mp.json").read_text(encoding="utf-8") == reference_write_poly(p)


@pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3, 3)])
def test_array_json_of_an_empty_array_equals_the_reference(shape):
    for dtype in (float, complex):
        assert array_json(np.zeros(shape, dtype)) == reference_array_json(np.zeros(shape, dtype))


def test_valid_file_read_without_per_entry_walk(tmp_path, monkeypatch, p3):
    paths = [tmp_path / "p3.mp.json", tmp_path / "laurent.mp.json", tmp_path / "ints.mp.json"]
    write_poly(p3, paths[0])
    write_poly(LaurentPoly(-1, [crandn(np.random.default_rng(2), 4, 4) for _ in range(3)]),
               paths[1])
    paths[2].write_text('{"n": 1, "lo": 0, "coeffs": [[[[1, -2]]]]}', encoding="utf-8")

    def no_walk(value, where):
        raise AssertionError(f"per-entry walk ran at {where}")

    monkeypatch.setattr(core, "_entry", no_walk)
    for path in paths:
        read_poly(path)


# --- determinant-ratio oracle ---

def test_oracle_identity_shift_has_zero_error(p1):
    rep = det_ratio_oracle(p1, p1, removed=[], added=[])
    assert rep.passed and rep.max_rel_err == 0.0


def test_oracle_p1_shift(p1):
    spec = ShiftSpec(1.0, 0.0, [1, 0], [1, 0])
    shifted = right_shift_poly(p1, spec)
    rep = det_ratio_oracle(p1, shifted, removed=[1.0], added=[0.0], samples=32)
    assert rep.passed


def test_oracle_random_cubic_right_shift():
    rng = np.random.default_rng(11)
    p = rand_poly(rng, 3, 3)
    lam = 0.4 + 0.25j
    u = unit_vector(crandn(rng, 3))
    p = plant_right(p, lam, u)
    shifted = right_shift_poly(p, ShiftSpec(lam, -0.2 + 0.6j, u))
    rep = det_ratio_oracle(p, shifted, removed=[lam], added=[-0.2 + 0.6j], samples=32)
    assert rep.passed


def test_oracle_detects_wrong_factors(p1):
    spec = ShiftSpec(1.0, 0.0, [1, 0], [1, 0])
    shifted = right_shift_poly(p1, spec)
    rep = det_ratio_oracle(p1, shifted, removed=[], added=[], samples=16)
    assert not rep.passed


def test_oracle_degenerate_polynomial():
    p = MatrixPoly(
        [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    )
    with pytest.raises(DegeneratePolynomial):
        det_ratio_oracle(p, p, removed=[], added=[])


def test_oracle_rejects_samples_near_shift_values(p1):
    # all removed/added values sit on the sampling circles; sampling must avoid them
    spec = ShiftSpec(1.0, 0.7, [1, 0], [1, 0])
    shifted = right_shift_poly(p1, spec)
    rep = det_ratio_oracle(p1, shifted, removed=[1.0], added=[0.7], samples=24)
    assert rep.passed


def _on_circle(k, r=0.7):
    """k equispaced points on |z| = r, the oracle's first sample circle."""
    return r * np.exp(2j * np.pi * np.arange(k) / k)


def test_oracle_that_cannot_place_its_samples_raises_a_typed_error(p1):
    # 2500 values on |z| = 0.7 leave no point of that circle 1e-3 away from all of them
    pts = _on_circle(2500)
    with pytest.raises(DegenerateShift) as caught:
        det_ratio_oracle(p1, p1, removed=pts, added=pts)
    assert str(caught.value) == "could not place oracle samples away from shift values"


def test_oracle_draws_again_near_a_shift_value(p1, monkeypatch):
    # 800 values on |z| = 0.7 block about a third of that circle: some draws are
    # rejected, and every sample the oracle evaluates keeps its 1e-3 distance
    pts = _on_circle(800)
    evaluated = []

    def spy(p, z):
        evaluated.append(np.asarray(z, dtype=complex))
        return evaluate(p, z)

    monkeypatch.setattr(core, "evaluate", spy)
    assert det_ratio_oracle(p1, p1, removed=pts, added=pts).passed
    samples = evaluated[0]
    assert len(samples) == 16 and np.abs(np.subtract.outer(samples, pts)).min() >= 1e-3
    rng = np.random.default_rng(0)  # the first 16 draws, had none been rejected
    first = [core.ORACLE_RADII[k % 2] * cmath.exp(2j * math.pi * rng.random()) for k in range(16)]
    assert not np.allclose(samples, first)


def _planted_quadratic_shift(n, lam=0.5 + 0.2j, mu=-0.3 + 0.1j):
    rng = np.random.default_rng(n)
    u = unit_vector(crandn(rng, n))
    p = plant_right(rand_poly(rng, n, 2), lam, u)
    return p, right_shift_poly(p, ShiftSpec(lam, mu, u))


@pytest.mark.parametrize("n", [16, 32, 100])
def test_oracle_passes_a_valid_shift_at_size(n):
    # a gate of the form |det A(z)| > 1e-12 ||A(z)||_F^n calls these degenerate from n = 16 on
    p, shifted = _planted_quadratic_shift(n)
    assert det_ratio_oracle(p, shifted, removed=[0.5 + 0.2j], added=[-0.3 + 0.1j]).passed


def test_oracle_fails_a_wrong_target_at_size():
    p, shifted = _planted_quadratic_shift(32)
    rep = det_ratio_oracle(p, shifted, removed=[0.5 + 0.2j], added=[-0.2 + 0.1j])
    assert not rep.passed and rep.max_rel_err > 1e-2


@pytest.mark.parametrize("alpha", [1e-150, 1e150])
def test_oracle_at_extreme_scales(alpha):
    # det A(z) ~ alpha^32 is out of double range; its logarithm is not
    p, shifted = _planted_quadratic_shift(32)
    a, a_tilde = (MatrixPoly([alpha * c for c in q.coeffs]) for q in (p, shifted))
    for fit in (False, True):
        rep = det_ratio_oracle(a, a_tilde, removed=[0.5 + 0.2j], added=[-0.3 + 0.1j],
                               fit_constant=fit)
        assert rep.passed and abs(rep.constant - 1) <= 1e-10


def test_oracle_shared_kernel_vector_is_degenerate():
    rng = np.random.default_rng(5)
    p = shared_kernel_poly(rng, 8, 2)
    with pytest.raises(DegeneratePolynomial, match="det a\\(z\\) vanishes at every sample point"):
        det_ratio_oracle(p, rand_poly(rng, 8, 2))


def _per_sample_oracle(a, a_tilde, removed, added, seed=0, fit_constant=False, samples=16):
    """The oracle one sample at a time: evaluate, rank test and slogdet per point.

    Both operands are first multiplied by the power of two that brings their
    largest entry into [0.5, 1), as the oracle does.
    """
    step = 2.0 ** -math.frexp(max(np.abs(c).max() for c in a.coeffs + a_tilde.coeffs))[1]
    a = LaurentPoly(a.lo, [step * c for c in a.coeffs])
    a_tilde = LaurentPoly(a_tilde.lo, [step * c for c in a_tilde.coeffs])
    avoid = np.array(removed + added, dtype=complex)
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < samples:
        z = core.ORACLE_RADII[len(pts) % 2] * cmath.exp(2j * math.pi * rng.random())
        if not (avoid.size and np.min(np.abs(z - avoid)) < 1e-3):
            pts.append(z)
    rows = []
    for z in pts:
        ma = evaluate(a, z)
        rows.append((core.rcond(ma) > core.RANK_TOL, *np.linalg.slogdet(ma),
                     *np.linalg.slogdet(evaluate(a_tilde, z))))
    regular, sign_a, log_a, sign_t, log_t = (np.array(col) for col in zip(*rows))
    if not regular.any():
        raise DegeneratePolynomial("det a(z) vanishes at every sample point")
    num = np.prod([[z - w for w in removed] for z in pts], axis=1)
    den = np.prod([[z - w for w in added] for z in pts], axis=1)
    ratio = sign_t / sign_a * np.exp(log_t - log_a) * num / den
    constant = ratio[np.argmax(log_a + np.log(np.abs(den)))] if fit_constant else 1.0 + 0.0j
    err = float(np.max(np.abs(ratio / constant - 1.0)))
    return err <= core.ORACLE_TOL, err, complex(constant)


@pytest.mark.parametrize("lo", [0, -1])
def test_stacked_oracle_matches_per_sample_reference(lo):
    lam, mu = 0.5 + 0.2j, -0.3 + 0.1j
    cases = [([lam], [mu], False), ([lam], [mu], True), ([lam], [0.1], False)]  # the last fails
    for seed, n in enumerate((2, 3, 5, 8, 12, 16, 20)):
        rng = np.random.default_rng(100 * seed - lo)
        u = unit_vector(crandn(rng, n))
        p = plant_right(rand_laurent(rng, n, lo, 2), lam, u)
        shifted = right_shift_laurent(p, ShiftSpec(lam, mu, u))
        for removed, added, fit in cases:
            rep = det_ratio_oracle(p, shifted, removed=removed, added=added, seed=seed,
                                   fit_constant=fit)
            want = _per_sample_oracle(p, shifted, removed, added, seed, fit)
            assert (rep.passed, rep.max_rel_err, rep.constant) == want
            assert rep.passed == (added == [mu])
    degenerate = shared_kernel_poly(np.random.default_rng(5), 8, 2)
    for oracle in (det_ratio_oracle, _per_sample_oracle):
        with pytest.raises(DegeneratePolynomial):
            oracle(degenerate, degenerate, [], [])


@pytest.mark.parametrize("samples", [0, -3])
def test_oracle_rejects_nonpositive_samples(p1, samples):
    # zero samples used to report "det a(z) vanishes at every sample point"
    with pytest.raises(ValueError, match="samples must be at least 1"):
        det_ratio_oracle(p1, p1, samples=samples)
