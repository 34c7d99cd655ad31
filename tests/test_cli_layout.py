"""The layout of every ``mpshift`` report, with the numbers masked.

Each case runs one command in both ``--format`` modes and compares its exit
code, stdout and stderr with ``cli_layout.json``.  Numbers become ``#`` and
runs of spaces one space, so the layout (lines, keys, labels, messages) is
pinned while digits that depend on the BLAS build are not.

Run this file as a script to rewrite ``cli_layout.json`` from the current
code: ``PYTHONPATH=src python tests/test_cli_layout.py``.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from mpshift import (
    LaurentPoly,
    MatrixPoly,
    ShiftSpec,
    cli,
    polyeig,
    right_shift_poly,
    shift_from_infinity,
    write_poly,
)
from mpshift.fixtures import p1, p2, p3

GOLDEN = Path(__file__).with_name("cli_layout.json")

P3_SHIFT = ["--shift", "1,0", "--u", "1,1,1,1,1", "--v", "0.2,0.2,0.2,0.2,0.2"]

SUCCESSES = {
    "fixture": ["fixture", "p1", "-o", "{out}"],
    "eig": ["eig", "{p1}"],
    "eig_infinite": ["eig", "{p2}"],
    "eig_left": ["eig", "{p1}", "--left"],
    "shift_right": ["shift", "{p1}", "--lambda", "1", "--mu", "0", "--u", "1,0", "--v", "1,0", "-o", "{out}"],
    "shift_auto": ["shift", "{p1}", "--lambda", "1", "--mu", "0", "-o", "{out}"],
    "shift_left": ["shift", "{p3}", "--lambda", "1", "--mu", "0", "--side", "left", "-o", "{out}"],
    "shift_noop": ["shift", "{p1}", "--lambda", "1", "--mu", "1", "--u", "1,0", "-o", "{out}"],
    "shift_single_inf": ["shift", "{p2}", "--lambda", "inf", "--mu", "1", "--u", "1,0,0", "-o", "{out}"],
    "shift_double": ["shift", "{p1}", "--double", "--lambda", "0.3333333333333333", "--mu", "0.1",
                     "--lambda2", "1", "--mu2", "2", "-o", "{out}"],
    "shift_multi": ["shift", "{p1}", "--multi", "{packet}", "-o", "{out}"],
    "shift_from_inf": ["shift", "{p2}", "--from-inf", "--mu", "1", "--u", "1,0,0", "-o", "{out}"],
    "shift_to_inf": ["shift", "{p1}", "--to-inf", "--lambda", "0.5", "-o", "{out}"],
    "shift_palindromic": ["shift", "{pal}", "--palindromic", "--lambda={pal_lam}", "--mu", "0.25", "-o", "{out}"],
    "check_pass": ["check", "{p1}", "{p1s}", "--removed", "1", "--added", "0"],
    "check_fail": ["check", "{p1}", "{p1s}"],
    "check_fit_constant": ["check", "{p2}", "{p2s}", "--added", "1", "--fit-constant"],
    "solve": ["solve", "{p3}"],
    "solve_shift": ["solve", "{p3}", *P3_SHIFT],
    "solve_shift_auto": ["solve", "{p3}", "--shift", "1"],
    "solve_degree_one": ["solve", "{pencil}"],
    "solve_eigen": ["solve", "{p3}", "--method", "eigen"],
    "factor_quad": ["factor", "{quad}", "--quad"],
    "factor_both": ["factor", "{quad}", "--quad", "--both"],
    "factor_poly": ["factor", "{p3s}"],
}

FAILURES = {
    # usage and parse errors: exit 2
    "eig_missing_file": ["eig", "{dir}/nope.mp.json"],
    "eig_empty_file": ["eig", "{empty}"],
    "eig_nonfinite_entry": ["eig", "{nonfinite}"],
    "eig_laurent": ["eig", "{quad}"],
    "shift_conflicting_modes": ["shift", "{p1}", "--from-inf", "--to-inf", "--mu", "1", "-o", "{out}"],
    "shift_missing_mu": ["shift", "{p1}", "--lambda", "1", "-o", "{out}"],
    "shift_vector_length": ["shift", "{p1}", "--lambda", "1", "--mu", "0", "--u", "1,0,0", "-o", "{out}"],
    "shift_zero_vector": ["shift", "{p1}", "--lambda", "1", "--mu", "0", "--u", "0,0", "-o", "{out}"],
    "shift_multi_dependent": ["shift", "{p2}", "--multi", "{packet_dependent}", "-o", "{out}"],
    "shift_multi_missing_key": ["shift", "{p1}", "--multi", "{packet_bad}", "-o", "{out}"],
    "shift_palindromic_laurent": ["shift", "{quad}", "--palindromic", "--lambda", "1", "--mu", "0", "-o", "{out}"],
    "factor_quad_on_polynomial": ["factor", "{p1}", "--quad"],
    "factor_both_without_quad": ["factor", "{p1}", "--both"],
    "factor_laurent_without_quad": ["factor", "{quad}"],
    "solve_bad_method": ["solve", "{p3}", "--method", "bogus"],
    "solve_bad_shift": ["solve", "{p3}", "--shift", "1,2,3"],
    "check_missing_file": ["check", "{p1}", "{dir}/nope.mp.json"],
    # numeric failures: exit 1
    "eig_degenerate": ["eig", "{degenerate}"],
    "shift_not_an_eigenpair": ["shift", "{p1}", "--lambda", "0.5", "--mu", "0", "--u", "1,0", "-o", "{out}"],
    "solve_no_splitting": ["solve", "{circle}"],
    "solve_shift_not_an_eigenpair": ["solve", "{p3}", "--shift", "0.5", "--u", "1,0,0,0,0"],
    "factor_unfactorable": ["factor", "{p3}"],
}

CASES = {**SUCCESSES, **FAILURES}

FORMATS = ("table", "json")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def write_inputs(d):
    """Write every input file the cases read into directory ``d``."""
    d = Path(d)
    quad = LaurentPoly(-1, (-0.25 * np.eye(2), np.array([[1.0, 0.1], [0.0, 1.0]]), -0.25 * np.eye(2)))
    rng = np.random.default_rng(401)
    a0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pal = MatrixPoly([a0, r + r.conj().T, a0.conj().T])
    pal_lam = complex(min((q.value for q in polyeig(pal).finite() if abs(abs(q.value) - 1) > 0.05), key=abs))
    polys = {
        "p1": p1(),
        "p2": p2(),
        "p3": p3(),
        "p1s": right_shift_poly(p1(), ShiftSpec(1.0, 0.0, [1, 0], [1, 0])),
        "p2s": shift_from_infinity(p2(), 1.0, [1, 0, 0]),
        "p3s": right_shift_poly(p3(), ShiftSpec(1.0, 0.0, np.ones(5), np.ones(5) / 5)),
        "quad": quad,
        "pal": pal,
        "pencil": MatrixPoly([-np.diag([0.3, 0.5]), np.eye(2)]),
        "degenerate": MatrixPoly([np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]),
        "circle": MatrixPoly([np.array([[1j]]), np.array([[-1 - 1j]]), np.array([[1.0]])]),
    }
    paths = {"dir": str(d), "out": str(d / "out.mp.json")}
    for name, poly in polys.items():
        paths[name] = str(d / f"{name}.mp.json")
        write_poly(poly, paths[name])
    texts = {
        "empty": "",
        "nonfinite": '{"n": 2, "lo": 0, "coeffs": [[[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]]}',
        "packet": json.dumps({"lambdas": ["1"], "targets": ["0"]}),
        "packet_dependent": json.dumps({"lambdas": ["0+1i", "0-1i"], "targets": ["0.3", "-0.3"]}),
        "packet_bad": json.dumps({"lambdas": ["1"]}),
    }
    for name, text in texts.items():
        paths[name] = str(d / f"{name}.json")
        Path(paths[name]).write_text(text, encoding="utf-8")
    paths["pal_lam"] = f"{pal_lam.real!r}{'+' if pal_lam.imag >= 0 else '-'}{abs(pal_lam.imag)!r}i"
    return paths


def argv_for(case, fmt, paths):
    return [a.format(**paths) for a in CASES[case]] + ["--format", fmt]


def run_case(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def mask(text, d):
    text = _NUMBER.sub("#", text.replace(str(d), "<dir>"))
    return re.sub(r" +", " ", text)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("layout")
    return d, write_inputs(d)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_layout(case, fmt, inputs, capsys):
    d, paths = inputs
    code, out, err = run_case(argv_for(case, fmt, paths), capsys)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{case}-{fmt}"]
    assert [code, mask(out, d), mask(err, d)] == expected


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(
        f"{case}-{fmt}" for case in CASES for fmt in FORMATS
    )


@pytest.mark.parametrize("case", sorted(SUCCESSES))
def test_commands_return_a_report_and_print_nothing(case, inputs, capsys):
    _, paths = inputs
    args = cli.build_parser().parse_args(argv_for(case, "json", paths))
    report = args.func(args)
    assert isinstance(report, cli.Report)
    assert capsys.readouterr() == ("", "")


def test_each_format_renders_matrices_one_way(inputs, capsys, monkeypatch):
    _, paths = inputs

    def forbidden(*_):
        raise AssertionError("matrix rendered in the other format")

    for fmt, other in (("json", "fmt_matrix"), ("table", "matrix_json")):
        with monkeypatch.context() as m:
            m.setattr(cli, other, forbidden)
            for case in ("factor_both", "factor_poly", "solve_shift", "eig_left"):
                assert run_case(argv_for(case, fmt, paths), capsys)[0] == 0


def _capture(argv):
    """Run one command outside pytest; the same triple ``run_case`` returns."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(tmp)
        golden = {}
        for case in sorted(CASES):
            for fmt in FORMATS:
                code, out, err = _capture(argv_for(case, fmt, paths))
                golden[f"{case}-{fmt}"] = [code, mask(out, tmp), mask(err, tmp)]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
