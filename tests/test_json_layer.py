"""The template renderers and the one-pass reader against their references.

``cli.report_json`` must give the bytes of
``json.dumps(fields, default=matrix_json)``; ``core._coeff_array`` must accept, return and refuse
exactly what the nested-sequence version kept here as the oracle does; ``core.read_poly``,
which reads the documented layout in one flat orjson parse, must give the stdlib reader's
result or error on each file of ``READ_CASES`` and on seeded, mutated files.
"""

import json
import math
import random
import re
import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mpshift import LaurentPoly, cli, core, write_poly
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


# --- read_poly: the orjson parse against the stdlib reader's outcome ---

ONE = '{"n": 1, "lo": 0, "coeffs": [[[[%s, %s]]]]}'
ONE_ONE = (ONE % (1, 0)).encode()
PARSE, DIMENSION = "ParseError", "DimensionMismatch"



def long_poly(first, last):
    """A degree-501 polynomial in n = 1, past the size at which the empty-slot check
    switches to numpy: ``first`` and ``last`` are its outer coefficients."""
    return b'{"n": 1, "lo": 0, "coeffs": [' + first + b", [[[1, 0]]]" * 500 + b", " + last + b"]}"


# name: (file bytes, the stdlib reader's (error class, message) or the
# coefficient bits (float.hex) of the polynomial it returns)
READ_CASES = {
    "nan": ((ONE % ("NaN", 0)).encode(),
            (PARSE, "coeffs[0][0][0]: non-finite entry, got [nan, 0]")),
    "infinity": ((ONE % (1, "Infinity")).encode(),
                 (PARSE, "coeffs[0][0][0]: non-finite entry, got [1, inf]")),
    "1e400": ((ONE % ("1e400", 0)).encode(),
              (PARSE, "coeffs[0][0][0]: non-finite entry, got [inf, 0]")),
    "int-400-digits": ((ONE % ("1" + "0" * 399, 0)).encode(),
                       (PARSE, f"coeffs[0][0][0]: entry out of double range, got [1{'0' * 399}, 0]")),
    "int-beyond-64-bits-and-minus-zero-int": (
        (ONE % ("12345678901234567890123", "-0")).encode(),
        ["0x1.4ea15b273b38ap+73", "0x0.0p+0"]),
    "n-beyond-64-bits": (
        b'{"n": 18446744073709551616, "lo": 0, "coeffs": [[[[1, 0]]]]}',
        (DIMENSION, "coeffs[0]: shape 1x1, expected 18446744073709551616x18446744073709551616")),
    "lo-float": (b'{"n": 1, "lo": 0.0, "coeffs": [[[[1, 0]]]]}',
                 (PARSE, "field 'lo': expected an integer, got 0.0")),
    "bom": (b"\xef\xbb\xbf" + ONE_ONE,
            (PARSE, "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)")),
    "invalid-utf8": (ONE_ONE + b"\xff",
                     (PARSE, "'utf-8' codec can't decode byte 0xff in position 41: "
                             "invalid start byte")),
    "trailing-data": (ONE_ONE + b" []", (PARSE, "line 1, column 43: Extra data")),
    "duplicate-n": (b'{"n": 1, "lo": 0, "n": 2, "coeffs": [[[[1, 0]]]]}',
                    (DIMENSION, "coeffs[0]: shape 1x1, expected 2x2")),
    "true-entry": ((ONE % (1, "true")).encode(),
                   (PARSE, "coeffs[0][0][0]: expected a [re, im] pair, got [1, True]")),
    "minus-zero": ((ONE % ("-0.0", "-0.0")).encode(), ["-0x0.0p+0", "-0x0.0p+0"]),
    "crlf": (b'{\r\n "n": 1,\r\n "lo": 0,\r\n "coeffs": [[[[0.1, -2.5e-7]]]]\r\n}\r\n',
             ["0x1.999999999999ap-4", "-0x1.0c6f7a0b5ed8dp-22"]),
    "top-level-array": (b"[1, 2]", (PARSE, "top-level value must be an object")),
    "empty": (b"", (PARSE, "line 1, column 1: Expecting value")),
    "lone-surrogate-key": (b'{"\\ud800": 1, "n": 1, "lo": 0, "coeffs": [[[[3, 4]]]]}',
                           ["0x1.8000000000000p+1", "0x1.0000000000000p+2"]),
    "n-true": (b'{"n": true, "lo": 0, "coeffs": [[[[1, 0]]]]}',
               (PARSE, "field 'n': expected a positive integer, got True")),
    "lo-false": (b'{"n": 1, "lo": false, "coeffs": [[[[1, 0]]]]}',
                 (PARSE, "field 'lo': expected an integer, got False")),
    "lo-true": (b'{"n": 1, "lo": true, "coeffs": [[[[1, 0]], [[2, 0]]]]}',
                (PARSE, "field 'lo': expected an integer, got True")),
    "pair-of-three-beside-a-pair-of-one": (
        b'{"n": 2, "lo": 0, "coeffs": [[[[1, 2, 3], [4]], [[1, 0], [0, 1]]]]}',
        (PARSE, "coeffs[0][0][0]: expected a [re, im] pair, got [1, 2, 3]")),
    "empty-slot": ((ONE % ("", 1)).encode(), (PARSE, "line 1, column 33: Expecting value")),
    "entry-1.": ((ONE % ("1.", 0)).encode(), (PARSE, "line 1, column 34: Expecting ',' delimiter")),
    "entry-+1": ((ONE % ("+1", 0)).encode(), (PARSE, "line 1, column 33: Expecting value")),
    "entry-01": ((ONE % ("01", 0)).encode(), (PARSE, "line 1, column 34: Expecting ',' delimiter")),
    "entry-.5": ((ONE % (".5", 0)).encode(), (PARSE, "line 1, column 33: Expecting value")),
    "entry-1e": ((ONE % ("1e", 0)).encode(), (PARSE, "line 1, column 34: Expecting ',' delimiter")),
    "entry-1-2": ((ONE % ("1-2", 0)).encode(), (PARSE, "line 1, column 34: Expecting ',' delimiter")),
    "entry---1": ((ONE % ("--1", 0)).encode(), (PARSE, "line 1, column 33: Expecting value")),
    "two-numbers-between-commas": (b'{"n": 1, "lo": 0, "coeffs": [[[[1 2, 0]]]]}',
                                   (PARSE, "line 1, column 35: Expecting ',' delimiter")),
    # a number moved out of its emptied slot into a gap between brackets
    "number-before-a-bracket": (b'{"n": 1, "lo": 0, "coeffs": [7[[[ , 0]]]]}',
                                (PARSE, "line 1, column 31: Expecting ',' delimiter")),
    "number-after-a-bracket": (b'{"n": 1, "lo": 0, "coeffs": [[[[1, ]]]5]}',
                               (PARSE, "line 1, column 36: Expecting value")),
    "long-number-before-a-bracket": (long_poly(b"7[[[ , 0]]]", b"[[[1, 0]]]"),
                                     (PARSE, "line 1, column 31: Expecting ',' delimiter")),
    "long-number-before-a-bracket-odd": (long_poly(b"17[[[ , 0]]]", b"[[[1, 0]]]"),
                                         (PARSE, "line 1, column 32: Expecting ',' delimiter")),
    "long-number-after-a-bracket": (long_poly(b"[[[1, 0]]]", b"[[[1, ]]]5"),
                                    (PARSE, "line 1, column 6048: Expecting value")),
    "long-number-after-a-bracket-odd": (long_poly(b"[[[10, 0]]]", b"[[[1, ]]]5"),
                                        (PARSE, "line 1, column 6049: Expecting value")),
    "coEffs-key": (b'{"n": 1, "lo": 0, "coEffs": [[[[1, 0]]]]}', (PARSE, "missing key 'coeffs'")),
    "n-1e12-over-1x1": (
        b'{"n": 1000000000000, "lo": 0, "coeffs": [[[[1, 0]]]]}',
        (DIMENSION, "coeffs[0]: shape 1x1, expected 1000000000000x1000000000000")),
    "lo-minus-zero": (b'{"n": 1, "lo": -0, "coeffs": [[[[1.5, -2]]]]}',
                      ["0x1.8000000000000p+0", "-0x1.0000000000000p+1"]),
    "extra-key": (b'{"n": 1, "lo": 0, "coeffs": [[[[1.5, -2]]]], "note": "x"}',
                  ["0x1.8000000000000p+0", "-0x1.0000000000000p+1"]),
    "keys-reordered": (b'{"coeffs": [[[[0.5, 0]]], [[[2, 0.25]]]], "lo": -1, "n": 1}',
                       ["0x1.0000000000000p-1", "0x0.0p+0", "0x1.0000000000000p+1",
                        "0x1.0000000000000p-2"]),
}


def stdlib_read(path):
    """The reference reader: Python's ``json`` and the checks of ``core._poly``."""
    return core._poly(core._read_object(path, core._POLY_KEYS))


def read_outcome(path, read=core.read_poly):
    try:
        p = read(path)
    except MpshiftError as exc:
        return type(exc).__name__, str(exc)
    return [x.hex() for x in np.array(p.coeffs).view(float).ravel().tolist()]


@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_read_poly_keeps_the_stdlib_readers_outcome(tmp_path, case):
    data, want = READ_CASES[case]
    path = tmp_path / "case.mp.json"
    path.write_bytes(data)
    assert read_outcome(path) == want


def counting_read_object(monkeypatch):
    """Count the stdlib reads of ``core.read_poly`` from here on: the list of their keys."""
    calls = []
    read_object = core._read_object

    def counted(path, keys):
        calls.append(keys)
        return read_object(path, keys)

    monkeypatch.setattr(core, "_read_object", counted)
    return calls


def test_a_failed_fast_parse_reads_through_the_stdlib_once(tmp_path, monkeypatch):
    calls = counting_read_object(monkeypatch)
    path = tmp_path / "case.mp.json"
    write_poly(LaurentPoly(-1, [np.eye(2), -2 * np.eye(2), np.ones((2, 2))]), path)
    core.read_poly(path)
    path.write_bytes(ONE_ONE)
    core.read_poly(path)
    assert calls == []  # the documented layout takes the flat parse alone
    path.write_bytes(READ_CASES["keys-reordered"][0])
    core.read_poly(path)
    assert calls == [("n", "lo", "coeffs")]
    path.write_bytes(READ_CASES["nan"][0])
    with pytest.raises(core.ParseError):
        core.read_poly(path)
    assert len(calls) == 2  # a file the flat parse refuses is read once more


# --- read_poly against the stdlib reader on seeded, mutated files ---

EDIT_BYTES = b'0123456789.-+eE[], \n\t\r{}":'
ENTRIES = [0.0, -0.0, 1.0, 7.0, 0.1, -2.5e-7, 1e-05, 1e16, 5e-324, sys.float_info.max, 123.456]


def random_poly(rng):
    """n = 9 puts most files past the size at which the empty-slot check switches to numpy."""
    k, n = rng.randint(1, 3), rng.choice((1, 2, 3, 9))
    coeffs = [[[complex(rng.choice(ENTRIES) * rng.choice((1, -1)),
                        rng.choice((0.0, -0.0, rng.uniform(-9, 9))))
                for _ in range(n)] for _ in range(n)] for _ in range(k)]
    return LaurentPoly(-rng.randint(0, k - 1), coeffs)


def layouts(text):
    """``write_poly``'s text and other layouts of its payload, by name."""
    payload = json.loads(text)
    compact = json.dumps(payload)
    return {
        "write_poly": text,
        "compact": compact,
        "no-spaces": json.dumps(payload, separators=(",", ":")),
        "indent-0": json.dumps(payload, indent=0),
        "indent-2": json.dumps(payload, indent=2),
        "indent-tab": json.dumps(payload, indent="\t"),
        "crlf": text.replace("\n", "\r\n"),
        "integers": re.sub(r"\.0(?=[],])", "", compact),  # 1.0 as 1, -0.0 as -0
        "keys-reordered": json.dumps({key: payload[key] for key in ("lo", "coeffs", "n")}),
        "extra-key": json.dumps({**payload, "x": [1, 2]}),
    }


def mutated(rng, data):
    """``data`` after 0-3 random insertions, deletions or replacements of one byte."""
    data = bytearray(data)
    for _ in range(rng.randint(0, 3)):
        i, byte = rng.randrange(len(data) + 1), rng.choice(EDIT_BYTES)
        edit = rng.choice(("insert", "delete", "replace")) if i < len(data) else "insert"
        if edit == "insert":
            data.insert(i, byte)
        elif edit == "delete":
            del data[i]
        else:
            data[i] = byte
    return bytes(data)


def test_read_poly_matches_the_stdlib_reader_on_mutated_files(tmp_path, monkeypatch):
    rng = random.Random(11)
    path = tmp_path / "case.mp.json"
    stdlib_reads = counting_read_object(monkeypatch)
    cases = accepted = flat = 0
    for _ in range(400):
        write_poly(random_poly(rng), path)
        for text in layouts(path.read_text(encoding="utf-8")).values():
            path.write_bytes(mutated(rng, text.encode()))
            want = read_outcome(path, stdlib_read)
            before = len(stdlib_reads)
            assert read_outcome(path) == want, path.read_bytes()
            cases += 1
            accepted += isinstance(want, list)
            flat += len(stdlib_reads) == before
    assert flat > cases // 4 and accepted > flat + cases // 20, (cases, accepted, flat)
