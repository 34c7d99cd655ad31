"""The layout of every ``mpshift`` report, with the numbers masked.

Each case runs one command in both ``--format`` modes and compares its exit
code, stdout and stderr with ``cli_layout.json``.  Numbers become ``#`` and
runs of spaces one space, so the layout (lines, keys, labels, messages) is
pinned while digits that depend on the BLAS build are not.

Run this file as a script to rewrite ``cli_layout.json`` from the current
code: ``PYTHONPATH=src python tests/test_cli_layout.py``.
"""

import json
import os
import re
import subprocess
import sys
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
    "eig_not_utf8": ["eig", "{not_utf8}"],
    "eig_laurent": ["eig", "{quad}"],
    "shift_conflicting_modes": ["shift", "{p1}", "--from-inf", "--to-inf", "--mu", "1", "-o", "{out}"],
    "shift_missing_mu": ["shift", "{p1}", "--lambda", "1", "-o", "{out}"],
    "shift_vector_length": ["shift", "{p1}", "--lambda", "1", "--mu", "0", "--u", "1,0,0", "-o", "{out}"],
    "shift_zero_vector": ["shift", "{p1}", "--lambda", "1", "--mu", "0", "--u", "0,0", "-o", "{out}"],
    "shift_multi_dependent": ["shift", "{p2}", "--multi", "{packet_dependent}", "-o", "{out}"],
    "shift_multi_missing_key": ["shift", "{p1}", "--multi", "{packet_bad}", "-o", "{out}"],
    "shift_multi_not_utf8": ["shift", "{p1}", "--multi", "{packet_not_utf8}", "-o", "{out}"],
    "shift_multi_huge_int": ["shift", "{p1}", "--multi", "{packet_huge_int}", "-o", "{out}"],
    "shift_palindromic_laurent": ["shift", "{quad}", "--palindromic", "--lambda", "1", "--mu", "0", "-o", "{out}"],
    "factor_quad_on_polynomial": ["factor", "{p1}", "--quad"],
    "factor_both_without_quad": ["factor", "{p1}", "--both"],
    "factor_laurent_without_quad": ["factor", "{quad}"],
    "solve_bad_method": ["solve", "{p3}", "--method", "bogus"],
    "solve_bad_shift": ["solve", "{p3}", "--shift", "1,2,3"],
    "shift_mu_overflow": ["shift", "{p1}", "--lambda", "1", "--mu", "1e400", "-o", "{out}"],
    "shift_u_overflow": ["shift", "{p1}", "--lambda", "1", "--mu", "0", "--u", "1e400,0", "-o", "{out}"],
    "solve_shift_overflow": ["solve", "{p3}", "--shift", "1,1e400"],
    "solve_shift_inf": ["solve", "{p3}", "--shift", "inf"],
    "solve_flag_before_missing_file": ["solve", "{dir}/nope.mp.json", "--seed", "3"],
    "solve_shift_u_inf": ["solve", "{p3}", "--shift", "1,0", "--u", "inf,0,0,0,0"],
    "solve_shift_v_inf": ["solve", "{p3}", *P3_SHIFT[:4], "--v", "inf,0,0,0,0"],
    "check_missing_file": ["check", "{p1}", "{dir}/nope.mp.json"],
    "solve_tol_negative": ["solve", "{p3}", "--tol", "-1"],
    "solve_tol_nan": ["solve", "{p3}", "--tol", "nan"],
    "solve_tol_inf": ["solve", "{p3}", "--tol", "inf"],
    "solve_maxit_negative": ["solve", "{p3}", "--maxit", "-3"],
    "factor_tol_nan": ["factor", "{quad}", "--quad", "--tol", "nan"],
    "factor_maxit_zero": ["factor", "{quad}", "--quad", "--both", "--maxit", "0"],
    # numeric failures: exit 1
    "eig_degenerate": ["eig", "{degenerate}"],
    "shift_not_an_eigenpair": ["shift", "{p1}", "--lambda", "0.5", "--mu", "0", "--u", "1,0", "-o", "{out}"],
    "solve_no_splitting": ["solve", "{circle}"],
    "solve_shift_not_an_eigenpair": ["solve", "{p3}", "--shift", "0.5", "--u", "1,0,0,0,0"],
    "solve_shift_mu_outside": ["solve", "{p3}", "--shift", "1,2"],
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
    blobs = {
        "not_utf8": b'{"n": 1, "lo": 0, "coeffs": [[[[1, 0]]]]}\xff',
        "packet_not_utf8": b'{"lambdas": ["1\xff"], "targets": ["0"]}',
        "packet_huge_int": b'{"lambdas": [1' + b"0" * 5000 + b'], "targets": [0]}',
    }
    for name, text in texts.items():
        blobs[name] = text.encode("utf-8")
    for name, blob in blobs.items():
        paths[name] = str(d / f"{name}.json")
        Path(paths[name]).write_bytes(blob)
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
        raise AssertionError("rendered in the other format")

    # a JSON report formats no table text: no matrix, eigenvalue column or recovery line
    for fmt, others in (("json", ("fmt_matrix", "complex_texts")), ("table", ("matrix_json",))):
        with monkeypatch.context() as m:
            for other in others:
                m.setattr(cli, other, forbidden)
            for case in ("factor_both", "factor_poly", "solve_shift", "eig_left"):
                assert run_case(argv_for(case, fmt, paths), capsys)[0] == 0


# --- repeated calls in one process ---

def test_main_builds_the_parser_once(inputs, capsys, monkeypatch):
    _, paths = inputs
    calls = []
    build = cli.build_parser

    def spy():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        for case in ("solve", "eig", "solve_bad_method", "check_pass", "solve"):
            run_case(argv_for(case, "json", paths), capsys)
        assert run_case(["--help"], capsys)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import mpshift.cli as cli\n"
        "assert not built and cli._parser.cache_info().currsize == 0, built\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_case_repeats(case, inputs, capsys):
    _, paths = inputs
    for fmt in FORMATS:
        argv = argv_for(case, fmt, paths)
        assert run_case(argv, capsys) == run_case(argv, capsys)


@pytest.mark.parametrize(
    "before, status",
    [(["solve", "{p3}", "--method", "bogus"], 2), (["--help"], 0), (["solve", "--help"], 0)],
)
def test_a_case_repeats_after_an_early_exit(before, status, inputs, capsys):
    _, paths = inputs
    argv = argv_for("solve_shift", "json", paths)
    first = run_case(argv, capsys)
    assert run_case([a.format(**paths) for a in before], capsys)[0] == status
    assert run_case(argv, capsys) == first


def test_no_value_carries_over_between_calls(inputs, capsys):
    _, paths = inputs
    plain = run_case(argv_for("solve", "json", paths), capsys)
    assert run_case(argv_for("solve_shift", "json", paths), capsys)[0] == 0
    again = run_case(argv_for("solve", "json", paths), capsys)
    assert again == plain
    report = json.loads(again[1])
    assert report["shifted"] is False and "recovery" not in report and report["iterations"] == 12


@pytest.mark.parametrize("fmt", FORMATS)
def test_library_warnings_print_on_every_call(fmt, inputs, capsys):
    _, paths = inputs
    for _ in range(2):
        code, out, err = run_case(argv_for("solve_shift_mu_outside", fmt, paths), capsys)
        lines = err.splitlines()
        assert (code, out, len(lines)) == (1, "", 2), err
        assert lines[0] == "warning: acceleration expects |mu| < |lambda|; convergence may not improve"
        assert lines[1].startswith("error: ")


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
