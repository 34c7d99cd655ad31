"""The template renderers and the one-pass reader against their references.

``cli.report_json`` must give the bytes of
``json.dumps(fields, default=matrix_json)``; ``core._coeff_array`` must accept, return and refuse
exactly what the nested-sequence version kept here as the oracle does.
"""

import json
import math
import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mpshift import cli, core
from mpshift.errors import MpshiftError

import test_cli_layout as layout

SPECIAL = [0.0, -0.0, 1e16, 1e-05, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
           0.1, -2.5, math.nan, math.inf, -math.inf]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())


def reference_json(fields):
    return json.dumps(fields, default=cli.matrix_json)


@st.composite
def arrays(draw, max_dims=3):
    """Real or complex arrays; imaginary parts often all zeros of one sign, or of both."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=max_dims, min_side=0, max_side=4))
    real = draw(hnp.arrays(float, shape, elements=FLOATS))
    imag = draw(st.sampled_from(["real", "zero", "minus_zero", "mixed_zero", "any"]))
    if imag == "real":
        return real
    mat = np.empty(shape, dtype=complex)
    mat.real = real
    if imag == "any":
        mat.imag = draw(hnp.arrays(float, shape, elements=FLOATS))
    elif imag == "mixed_zero":
        mat.imag = draw(hnp.arrays(float, shape, elements=st.sampled_from([0.0, -0.0])))
    else:
        mat.imag = 0.0 if imag == "zero" else -0.0
    return mat


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text(max_size=4))
VALUES = st.recursive(
    st.one_of(SCALARS, arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(arrays())
def test_array_json_matches_json_dumps(mat):
    assert cli.array_json(mat) == json.dumps(cli.matrix_json(mat))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=6), VALUES, max_size=6))
def test_report_json_matches_json_dumps(fields):
    assert cli.report_json(fields) == reference_json(fields)


def test_real_data_pairs_keep_the_sign_of_zero():
    mat = np.array([[1.0, -2.5], [1e16, 5e-324]])
    assert cli.array_json(mat) == "[[[1.0, 0.0], [-2.5, 0.0]], [[1e+16, 0.0], [5e-324, 0.0]]]"
    minus = mat.astype(complex)
    minus.imag = -0.0
    assert cli.array_json(minus).count("-0.0") == 4
    assert cli.array_json(np.array([1 + 0.0j, complex(1, -0.0)])) == "[[1.0, 0.0], [1.0, -0.0]]"
    assert cli.array_json(np.array([math.nan, math.inf])) == "[[NaN, 0.0], [Infinity, 0.0]]"


@pytest.fixture(scope="module")
def layout_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("layout_bytes")
    return layout.write_inputs(d)


@pytest.mark.parametrize("case", sorted(layout.CASES))
def test_layout_cases_match_reference_bytes(case, layout_inputs, capsys, monkeypatch):
    argv = layout.argv_for(case, "json", layout_inputs)
    run = layout.run_case(argv, capsys)
    monkeypatch.setattr(cli, "report_json", reference_json)
    assert run == layout.run_case(argv, capsys)


# --- reader ---

def nested_coeff_array(raw, n):
    """``_coeff_array`` before the one-pass reader: numpy's nested-sequence discovery."""
    try:
        leaves = chain.from_iterable(chain.from_iterable(chain.from_iterable(raw)))
        if not set(map(type, leaves)) <= {int, float}:
            return None
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != (len(raw), n, n, 2) or not np.isfinite(arr).all():
        return None
    return arr.view(complex).reshape(len(raw), n, n)


NUMBERS = st.one_of(
    FLOATS,
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**1024, 2**1024 - 1, 2**1023, 2**53 + 1, -(2**64) - 3]),
)


def junk(old):
    """Something in place of ``old``: a wrong type, a wrong length or one level too deep."""
    shapes = [st.just([old]), st.just([])]
    if isinstance(old, list):
        shapes += [st.just(old[:1]), st.just(old + old[:1])]
    return st.one_of(
        st.booleans(), st.none(), NUMBERS, st.text(max_size=3),
        st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2), *shapes,
    )


@st.composite
def coeff_trees(draw):
    """A k x n x n x 2 tree of numbers with up to three nodes replaced, and a declared n."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tree = [[[[draw(NUMBERS), draw(NUMBERS)] for _ in range(n)] for _ in range(n)] for _ in range(k)]
    for _ in range(draw(st.integers(0, 3))):
        path = [draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1)),
                draw(st.integers(0, n - 1)), draw(st.integers(0, 1))]
        node = tree  # always a non-empty list
        for i in path[: draw(st.integers(0, 3))]:
            child = node[i % len(node)]
            if isinstance(child, list) and child:
                node = child
        i = draw(st.integers(0, len(node) - 1))
        node[i] = draw(junk(node[i]))
    return tree, draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 1)]))


def outcome(read, raw, n):
    arr = read(raw, n)
    if arr is not None:
        return arr.dtype, arr.shape, arr.tobytes()
    with pytest.raises(MpshiftError) as info:
        core._reject_coeffs(raw, n)
    return type(info.value), str(info.value)


@settings(max_examples=200, deadline=None)
@given(coeff_trees())
def test_reader_matches_nested_discovery(case):
    tree, n = case
    raw = json.loads(json.dumps(tree))  # NaN and Infinity as JSON literals
    assert outcome(core._coeff_array, raw, n) == outcome(nested_coeff_array, raw, n)


def test_reader_parity_covers_accepted_and_refused_trees():
    accepted = [[[[1, 0.5], [2**53 + 1, -0.0]], [[0, 0], [5e-324, 1e308]]]]
    assert outcome(core._coeff_array, accepted, 2) == outcome(nested_coeff_array, accepted, 2)
    assert core._coeff_array(accepted, 2) is not None
    for bad in ([[[[1, True]]]], [[[[1, None]]]], [[["ab"]]], [[[{"a": 1, "b": 2}]]],
                [[[[1, 2, 3]]]], [[[[1]]]], [[[[[1], [2]]]]], [[[[10**400, 0]]]],
                [[[[math.nan, 0]]]], [[[[1, 0]], [[1, 0], [2, 0]]]]):
        assert core._coeff_array(bad, 1) is None and nested_coeff_array(bad, 1) is None, bad
