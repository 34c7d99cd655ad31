"""Property-based checks of the structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mpshift import (
    LaurentPoly,
    MatrixPoly,
    ShiftSpec,
    evaluate,
    fixtures,
    polyeig,
    read_poly,
    reverse,
    right_shift_laurent,
    right_shift_poly,
    unit_vector,
    write_poly,
)

from conftest import crandn, mp_json_reference, plant_right, rand_laurent, rand_poly

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
