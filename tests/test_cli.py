"""Command-line front end: commands, exit codes, determinism, formats."""

import cmath
import json
import math
import re

import numpy as np
import pytest

from mpshift import MatrixPoly, LaurentPoly, cli, read_poly, write_poly
from mpshift.cli import main, parse_complex
from mpshift.fixtures import p1 as fixture_p1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- literals ---

def test_parse_complex_literals():
    assert parse_complex("1") == 1.0
    assert parse_complex("-2.5") == -2.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("1.5-0.25i") == 1.5 - 0.25j
    assert parse_complex("1e-3+2e-4i") == 1e-3 + 2e-4j
    assert parse_complex("inf") == complex(np.inf)


def test_parse_complex_rejects_garbage():
    from mpshift.cli import UsageError

    with pytest.raises(UsageError):
        parse_complex("2i+1")


# --- fixture ---

def test_fixture_p1_contents(tmp_path, capsys):
    out = tmp_path / "p1.mp.json"
    code, _, _ = run(capsys, "fixture", "p1", "-o", str(out))
    assert code == 0
    poly = read_poly(out)
    assert np.array_equal(poly.coeffs[0], -np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert np.array_equal(poly.coeffs[1], np.array([[4.0, 3.0], [1.0, 4.0]], dtype=complex))
    assert np.array_equal(poly.coeffs[2], -np.array([[3.0, 0.0], [1.0, 2.0]], dtype=complex))


def test_fixture_p2_and_p3(tmp_path, capsys):
    for name, n, d in (("p2", 3, 2), ("p3", 5, 4)):
        out = tmp_path / f"{name}.mp.json"
        code, _, _ = run(capsys, "fixture", name, "-o", str(out))
        assert code == 0
        poly = read_poly(out)
        assert poly.n == n and poly.d == d


def test_fixture_unknown_name_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "fixture", "p9", "-o", str(tmp_path / "x.mp.json"))
    assert code == 2


# --- eig ---

def test_eig_p1_table(tmp_path, capsys):
    path = tmp_path / "p1.mp.json"
    write_poly(fixture_p1(), path)
    code, out, _ = run(capsys, "eig", str(path))
    assert code == 0
    assert "0.333333333333333" in out
    assert "0.5" in out
    assert out.count("0.9999999") + out.count("1.0000000") >= 2


def test_eig_p2_has_two_inf_lines(tmp_path, capsys):
    from mpshift.fixtures import p2

    path = tmp_path / "p2.mp.json"
    write_poly(p2(), path)
    code, out, _ = run(capsys, "eig", str(path))
    assert code == 0
    assert sum(line.startswith("Inf") for line in out.splitlines()) == 2


def test_eig_json_format(tmp_path, capsys):
    path = tmp_path / "p1.mp.json"
    write_poly(fixture_p1(), path)
    code, out, _ = run(capsys, "eig", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["eigenvalues"]) == 4


@pytest.mark.parametrize("n", [16, 32, 100])
def test_eig_and_shift_random_complex_quadratic_at_size(tmp_path, capsys, n):
    # determinant-power rank gates would exit 1 with "det ... vanishes" from n = 16 on
    rng = np.random.default_rng(n)
    src, dst = tmp_path / "a.mp.json", tmp_path / "b.mp.json"
    write_poly(MatrixPoly([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                           for _ in range(3)]), src)
    code, out, err = run(capsys, "eig", str(src), "--format", "json")
    assert code == 0, err
    eigenvalues = json.loads(out)["eigenvalues"]
    assert len(eigenvalues) == 2 * n
    lam = eigenvalues[0]["value"]
    code, out, err = run(capsys, "shift", str(src), f"--lambda={lam[0]!r}{lam[1]:+.17g}i",
                         "--mu", "0", "-o", str(dst), "--format", "json")
    assert code == 0 and json.loads(out)["oracle"]["passed"] is True, err


def test_eig_empty_file_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.mp.json"
    path.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "eig", str(path))
    assert code == 2 and "error" in err


def test_eig_missing_file_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "eig", str(tmp_path / "nope.mp.json"))
    assert code == 2


# --- shift ---

def canonical_bytes(path, tmp_path, tag):
    """Re-serialize with signed zeros canonicalized (the float formatting itself
    is already shortest-round-trip)."""
    p = read_poly(path)
    coeffs = [np.asarray(c) + (0.0 + 0.0j) for c in p.coeffs]
    out = tmp_path / f"canon-{tag}.mp.json"
    write_poly(MatrixPoly(coeffs), out)
    return out.read_bytes()


def test_shift_p1_regression_byte_for_byte(tmp_path, capsys):
    src = tmp_path / "p1.mp.json"
    dst = tmp_path / "p1s.mp.json"
    write_poly(fixture_p1(), src)
    code, out, _ = run(
        capsys, "shift", str(src), "--lambda", "1", "--mu", "0",
        "--u", "1,0", "--v", "1,0", "-o", str(dst),
    )
    assert code == 0 and "PASS" in out
    expected = MatrixPoly(
        [
            -np.array([[0.0, 1.0], [0.0, 1.0]]),
            np.array([[1.0, 3.0], [0.0, 4.0]]),
            -np.array([[3.0, 0.0], [1.0, 2.0]]),
        ]
    )
    got = read_poly(dst)
    for a, b in zip(got.coeffs, expected.coeffs):
        assert np.array_equal(a, b)  # integer-exact
    ref = tmp_path / "expected.mp.json"
    write_poly(expected, ref)
    assert canonical_bytes(dst, tmp_path, "got") == canonical_bytes(ref, tmp_path, "ref")


def test_shift_noop_warns(tmp_path, capsys):
    src = tmp_path / "p1.mp.json"
    dst = tmp_path / "out.mp.json"
    write_poly(fixture_p1(), src)
    code, _, err = run(
        capsys, "shift", str(src), "--lambda", "1", "--mu", "1",
        "--u", "1,0", "-o", str(dst),
    )
    assert code == 0
    assert "no-op" in err
    back = read_poly(dst)
    for a, b in zip(back.coeffs, fixture_p1().coeffs):
        assert np.array_equal(a, b)


def test_shift_mode_conflict_exits_2(tmp_path, capsys):
    src = tmp_path / "p1.mp.json"
    write_poly(fixture_p1(), src)
    code, _, _ = run(
        capsys, "shift", str(src), "--from-inf", "--to-inf", "--mu", "1",
        "-o", str(tmp_path / "x.mp.json"),
    )
    assert code == 2


def test_shift_auto_vector(tmp_path, capsys):
    src = tmp_path / "p1.mp.json"
    dst = tmp_path / "auto.mp.json"
    write_poly(fixture_p1(), src)
    code, out, _ = run(
        capsys, "shift", str(src), "--lambda", "1", "--mu", "0", "-o", str(dst)
    )
    assert code == 0 and "PASS" in out
    got = read_poly(dst)
    expected = MatrixPoly(
        [
            -np.array([[0.0, 1.0], [0.0, 1.0]]),
            np.array([[1.0, 3.0], [0.0, 4.0]]),
            -np.array([[3.0, 0.0], [1.0, 2.0]]),
        ]
    )
    for a, b in zip(got.coeffs, expected.coeffs):
        assert np.allclose(a, b, atol=1e-12)


def test_shift_from_inf_p2_sequence(tmp_path, capsys):
    from mpshift.fixtures import p2

    src = tmp_path / "p2.mp.json"
    mid = tmp_path / "t1.mp.json"
    dst = tmp_path / "t2.mp.json"
    write_poly(p2(), src)
    code, out, _ = run(
        capsys, "shift", str(src), "--from-inf", "--mu", "1", "--u", "1,0,0",
        "-o", str(mid),
    )
    assert code == 0 and "PASS" in out
    code, out, _ = run(
        capsys, "shift", str(mid), "--from-inf", "--mu", "0.5", "--u", "1,0,0",
        "-o", str(dst),
    )
    assert code == 0 and "PASS" in out
    final = read_poly(dst)
    assert np.array_equal(
        final.coeffs[2],
        np.array([[2.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 0.0, 1.0]], dtype=complex),
    )


def test_shift_left_side(tmp_path, capsys):
    from mpshift.fixtures import p3

    src = tmp_path / "p3.mp.json"
    dst = tmp_path / "left.mp.json"
    write_poly(p3(), src)
    code, out, _ = run(
        capsys, "shift", str(src), "--lambda", "1", "--mu", "0", "--side", "left",
        "-o", str(dst),
    )
    assert code == 0 and "PASS" in out


def test_shift_multi(tmp_path, capsys):
    from mpshift.fixtures import p1 as f1

    src = tmp_path / "p1.mp.json"
    dst = tmp_path / "multi.mp.json"
    spec = tmp_path / "packet.json"
    write_poly(f1(), src)
    spec.write_text(json.dumps({"lambdas": ["1"], "targets": ["0"]}), encoding="utf-8")
    code, out, _ = run(capsys, "shift", str(src), "--multi", str(spec), "-o", str(dst))
    assert code == 0 and "PASS" in out


def test_shift_json_report(tmp_path, capsys):
    src = tmp_path / "p1.mp.json"
    dst = tmp_path / "out.mp.json"
    write_poly(fixture_p1(), src)
    code, out, _ = run(
        capsys, "shift", str(src), "--lambda", "1", "--mu", "0", "--u", "1,0",
        "-o", str(dst), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["passed"] is True


# --- factor ---

def _write_scalar_quad(path):
    write_poly(
        LaurentPoly(-1, (np.array([[-0.25]]), np.array([[1.0]]), np.array([[-0.25]]))),
        path,
    )


def test_factor_scalar_quad(tmp_path, capsys):
    path = tmp_path / "quad.mp.json"
    _write_scalar_quad(path)
    code, out, _ = run(capsys, "factor", str(path), "--quad")
    assert code == 0
    assert "0.2679491924311227" in out


def test_factor_both_reports_w(tmp_path, capsys):
    path = tmp_path / "quad.mp.json"
    _write_scalar_quad(path)
    code, out, _ = run(capsys, "factor", str(path), "--quad", "--both")
    assert code == 0
    assert "1.1547005383792515" in out


def test_factor_quad_on_polynomial_exits_2(tmp_path, capsys):
    path = tmp_path / "p1.mp.json"
    write_poly(fixture_p1(), path)
    code, _, _ = run(capsys, "factor", str(path), "--quad")
    assert code == 2


def test_factor_polynomial_path(tmp_path, capsys):
    # shifted P3 has a genuine canonical factorization
    from mpshift import ShiftSpec, right_shift_poly
    from mpshift.fixtures import p3

    shifted = right_shift_poly(p3(), ShiftSpec(1.0, 0.0, np.ones(5), np.ones(5) / 5))
    path = tmp_path / "p3s.mp.json"
    write_poly(shifted, path)
    code, out, _ = run(capsys, "factor", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["ucoeffs"]) == 4  # degree d-1 quotient of a quartic


def test_factor_unfactorable_exits_1(tmp_path, capsys):
    from mpshift.fixtures import p3

    path = tmp_path / "p3.mp.json"
    write_poly(p3(), path)
    code, _, err = run(capsys, "factor", str(path))
    assert code == 1 and "error" in err


# --- solve ---

def test_solve_p3(tmp_path, capsys):
    from mpshift.fixtures import p3

    path = tmp_path / "p3.mp.json"
    write_poly(p3(), path)
    code, out, _ = run(capsys, "solve", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["iterations"] - 12) <= 2
    assert payload["residual"] <= 1e-10


def test_solve_p3_shifted(tmp_path, capsys):
    from mpshift.fixtures import p3

    path = tmp_path / "p3.mp.json"
    write_poly(p3(), path)
    code, out, _ = run(
        capsys, "solve", str(path), "--shift", "1,0",
        "--u", "1,1,1,1,1", "--v", "0.2,0.2,0.2,0.2,0.2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["iterations"] - 6) <= 2
    assert payload["shifted"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{p3}", "--shift", "1,0", "--u", "0,0,0,0,0"),
        ("shift", "{p3}", "--lambda", "1", "--mu", "0", "--u", "0,0,0,0,0", "-o", "{out}"),
    ],
    ids=["solve_shift", "shift"],
)
def test_zero_vector_is_a_usage_error(tmp_path, capsys, argv):
    from mpshift.fixtures import p3

    path = tmp_path / "p3.mp.json"
    write_poly(p3(), path)
    argv = [a.format(p3=path, out=tmp_path / "out.mp.json") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "'0,0,0,0,0' is zero" in err


def test_solve_degree_one(tmp_path, capsys):
    path = tmp_path / "pencil.mp.json"
    write_poly(MatrixPoly([-np.diag([0.3, 0.5]), np.eye(2)]), path)
    code, out, _ = run(capsys, "solve", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["iterations"] == 0


@pytest.mark.parametrize("method", ["cr", "eigen"])
def test_solve_degree_one_sigma_is_zero(tmp_path, capsys, method):
    # every eigenvalue beyond the nth of a pencil is at infinity
    path = tmp_path / "pencil.mp.json"
    write_poly(MatrixPoly([-np.diag([0.3, 0.5]), np.eye(2)]), path)
    code, out, _ = run(capsys, "solve", str(path), "--method", method, "--format", "json")
    assert code == 0 and json.loads(out)["sigma"] == 0.0
    code, out, _ = run(capsys, "solve", str(path), "--method", method)
    assert code == 0 and "sigma:      0.0" in out.splitlines()


def test_solve_and_factor_a_pencil(tmp_path, capsys):
    path = tmp_path / "pencil.mp.json"
    write_poly(MatrixPoly([-np.array([[1.0, 0.2], [0.0, 0.5]]), 2 * np.eye(2)]), path)
    code, out, _ = run(capsys, "solve", str(path), "--shift", "0.5,0", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["shifted"] is True
    assert (payload["iterations"], payload["sigma"]) == (0, 0.0) and payload["residual"] <= 1e-15
    write_poly(MatrixPoly([-np.diag([0.3, 0.5]), 2 * np.eye(2)]), path)
    code, out, _ = run(capsys, "factor", str(path), "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["iterations"] == 0
    assert np.allclose(np.array(payload["g"]) @ [1, 1j], np.diag([0.15, 0.25]), rtol=0, atol=1e-15)


def test_solve_pencil_with_singular_leading_coefficient_exits_1(tmp_path, capsys):
    path = tmp_path / "pencil.mp.json"
    write_poly(MatrixPoly([np.eye(2), np.diag([1.0, 0.0])]), path)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: singular pivot at cyclic reduction step 0"]


def test_solve_p3_reports_sigma(tmp_path, capsys):
    from mpshift.fixtures import p3

    path = tmp_path / "p3.mp.json"
    write_poly(p3(), path)
    payload = json.loads(run(capsys, "solve", str(path), "--format", "json")[1])
    assert abs(payload["sigma"] - 0.98758) <= 1e-4 and payload["iterations"] == 12


def test_solve_splitting_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "circle.mp.json"
    write_poly(
        MatrixPoly([np.array([[1j]]), np.array([[-1 - 1j]]), np.array([[1.0]])]), path
    )
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1 and "error" in err


# --- check ---

def test_check_pass_and_fail(tmp_path, capsys):
    src = tmp_path / "p1.mp.json"
    dst = tmp_path / "p1s.mp.json"
    write_poly(fixture_p1(), src)
    run(
        capsys, "shift", str(src), "--lambda", "1", "--mu", "0", "--u", "1,0",
        "--v", "1,0", "-o", str(dst),
    )
    code, out, _ = run(capsys, "check", str(src), str(dst), "--removed", "1", "--added", "0")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "check", str(src), str(dst), "--removed", "", "--added", "")
    assert code == 1 and "FAIL" in out


def test_check_that_cannot_place_its_samples_is_one_error_line(tmp_path, capsys):
    # 2500 values on the oracle's circle |z| = 0.7 leave no sample point 1e-3 away
    src = tmp_path / "p1.mp.json"
    write_poly(fixture_p1(), src)
    z = 0.7 * np.exp(2j * np.pi * np.arange(2500) / 2500)
    pts = ",".join(f"{w.real!r}{'-' if w.imag < 0 else '+'}{abs(w.imag)!r}i" for w in z.tolist())
    for fmt in ("table", "json"):
        code, out, err = run(capsys, "check", str(src), str(src), f"--removed={pts}",
                             f"--added={pts}", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: could not place oracle samples away from shift values\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_shift_reports_a_failed_oracle(tmp_path, capsys, monkeypatch, fmt):
    from mpshift.core import OracleReport

    def failing(*args):
        return OracleReport(False, 0.25, 16, 1 + 0j, 1e-8)

    monkeypatch.setattr(cli, "det_ratio_oracle", failing)
    src, dst = tmp_path / "p1.mp.json", tmp_path / "out.mp.json"
    write_poly(fixture_p1(), src)
    code, out, err = run(capsys, "shift", str(src), "--lambda", "1", "--mu", "0", "--u", "1,0",
                         "-o", str(dst), "--format", fmt)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["oracle"] == {"passed": False, "max_rel_err": 0.25, "samples": 16}
    else:
        assert "oracle: FAIL (max rel err 2.500e-01 over 16 samples, tol 1.0e-08)" in out
    assert read_poly(dst).n == 2
    assert err == "error: determinant-ratio oracle FAILED (max rel err 2.500e-01)\n"


# --- determinism ---

def test_shift_is_byte_deterministic(tmp_path, capsys):
    src = tmp_path / "p1.mp.json"
    write_poly(fixture_p1(), src)
    outs = []
    logs = []
    for name in ("a.mp.json", "b.mp.json"):
        dst = tmp_path / name
        code, out, _ = run(
            capsys, "shift", str(src), "--lambda", "0.5", "--mu", "0.25",
            "-o", str(dst), "--seed", "42",
        )
        assert code == 0
        outs.append(dst.read_bytes())
        logs.append(out.replace(name, "OUT"))
    assert outs[0] == outs[1]
    assert logs[0] == logs[1]


def test_eig_is_deterministic(tmp_path, capsys):
    from mpshift.fixtures import p3

    path = tmp_path / "p3.mp.json"
    write_poly(p3(), path)
    _, out1, _ = run(capsys, "eig", str(path), "--seed", "7")
    _, out2, _ = run(capsys, "eig", str(path), "--seed", "7")
    assert out1 == out2


# --- remaining command surfaces ---

def test_eig_left_vectors_flag(tmp_path, capsys):
    path = tmp_path / "p1.mp.json"
    write_poly(fixture_p1(), path)
    code, out, _ = run(capsys, "eig", str(path), "--left", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(row["left"] is not None for row in payload["eigenvalues"])


def test_shift_to_inf_cli(tmp_path, capsys):
    path = tmp_path / "p1.mp.json"
    dst = tmp_path / "out.mp.json"
    write_poly(fixture_p1(), path)
    code, out, _ = run(
        capsys, "shift", str(path), "--to-inf", "--lambda", "0.5", "-o", str(dst)
    )
    assert code == 0 and "PASS" in out
    lead = read_poly(dst).coeffs[-1]
    assert abs(np.linalg.det(lead)) <= 1e-8  # one eigenvalue went to infinity


def test_shift_double_cli(tmp_path, capsys):
    from mpshift.fixtures import p1 as f1

    path = tmp_path / "p1.mp.json"
    dst = tmp_path / "out.mp.json"
    write_poly(f1(), path)
    code, out, _ = run(
        capsys, "shift", str(path), "--double",
        "--lambda", "0.3333333333333333", "--mu", "0.1",
        "--lambda2", "1", "--mu2", "2", "-o", str(dst),
    )
    assert code == 0 and "PASS" in out


def test_shift_double_cli_at_a_double_root(tmp_path, capsys):
    # equal lambdas: the automatic left vector of A(1) is one of the
    # right-shifted function, since p1's double root 1 is defective
    path = tmp_path / "p1.mp.json"
    write_poly(fixture_p1(), path)
    code, out, err = run(
        capsys, "shift", str(path), "--double", "--lambda", "1", "--mu", "0.2",
        "--lambda2", "1", "--mu2", "3", "-o", str(tmp_path / "d.mp.json"), "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["oracle"]["passed"]


def _p3big(tmp_path):
    """p3 times 2^1023 * 2.2 / 1.12: every entry finite, near the top of double range."""
    from mpshift.fixtures import p3

    path = tmp_path / "p3big.mp.json"
    write_poly(MatrixPoly([2.0**1023 * (2.2 / 1.12) * c for c in p3().coeffs]), path)
    return path


@pytest.mark.parametrize("argv", [["eig"], ["eig", "--left"], ["solve", "--method", "eigen"]])
def test_eigen_paths_near_the_top_of_double_range(tmp_path, capsys, argv):
    # the eigenvector SVDs run on the prescaled in-disk frame, so no Horner
    # sweep overflows; eig reports the eigenvalues of p3 itself
    from conftest import match_moduli
    from mpshift.fixtures import p3

    code, out, err = run(capsys, argv[0], str(_p3big(tmp_path)), *argv[1:], "--format", "json")
    assert (code, err) == (0, "")
    if argv[0] == "eig":
        rows = json.loads(out)["eigenvalues"]
        assert max(r["residual"] for r in rows) <= 1e-14
        expected = cli.polyeig(p3()).values()
        assert match_moduli([complex(*r["value"]) for r in rows], expected) <= 1e-10


def test_shift_oracle_passes_near_the_top_of_double_range(tmp_path, capsys):
    # the oracle's determinants overflowed here (seven warnings, a false FAIL
    # with error nan); both operands are now prescaled by one power of two
    argv = ["shift", str(_p3big(tmp_path)), "--lambda", "1", "--mu", "0.25",
            "-o", str(tmp_path / "s.mp.json"), "--format", "json"]
    code, out, err = run(capsys, *argv)
    oracle = json.loads(out)["oracle"]
    assert (code, err) == (0, "") and oracle["passed"] and oracle["max_rel_err"] <= 1e-14
    # a wrong added value at that scale still fails, with a finite error
    code, out, err = run(capsys, "check", argv[1], argv[7], "--removed", "1", "--added", "0.3",
                         "--format", "json")
    report = json.loads(out)
    assert (code, err) == (1, "") and not report["passed"] and 1e-2 < report["max_rel_err"] < 1


def test_shift_from_infinity_beyond_double_range_is_one_error_line(tmp_path, capsys):
    # p3big with 1 sent to infinity, brought back to 0.25: the shifted
    # coefficients overflow, which is a typed error, not a traceback
    mid, out = tmp_path / "t.mp.json", tmp_path / "x.mp.json"
    code, _, err = run(capsys, "shift", str(_p3big(tmp_path)), "--to-inf", "--lambda", "1",
                       "--u", "1,1,1,1,1", "-o", str(mid))
    assert (code, err) == (0, "")
    code, stdout, err = run(capsys, "shift", str(mid), "--from-inf", "--mu", "0.25", "-o", str(out))
    assert (code, stdout) == (1, "")
    assert re.fullmatch(r"error: \d+ shifted coefficient entries are beyond double range\n", err)
    assert not out.exists()


def test_oracle_report_is_strict_json_when_the_ratio_overflows(tmp_path, capsys):
    # det(1e300 p3) / det(p3) = 1e1500 is beyond double range; the oracle's
    # error is then non-finite, which the report writes as null, not NaN
    from mpshift.fixtures import p3

    def no_constant(name):
        raise ValueError(f"not JSON: {name}")

    a, b = tmp_path / "p3.mp.json", tmp_path / "p3x1e300.mp.json"
    write_poly(p3(), a)
    write_poly(MatrixPoly([1e300 * c for c in p3().coeffs]), b)
    code, out, err = run(capsys, "check", str(a), str(b), "--format", "json")
    report = json.loads(out, parse_constant=no_constant)
    assert (code, err) == (1, "")
    assert report == {"command": "check", "passed": False, "max_rel_err": None, "samples": 16}
    code, out, _ = run(capsys, "check", str(a), str(b))
    assert code == 1 and out.startswith("oracle: FAIL (max rel err ")


def test_shift_palindromic_cli(tmp_path, capsys):
    rng = np.random.default_rng(401)
    a0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = MatrixPoly([a0, r + r.conj().T, a0.conj().T])
    from mpshift import polyeig

    pair = next(
        q for q in sorted(polyeig(p).finite(), key=lambda q: abs(q.value))
        if abs(abs(q.value) - 1.0) > 0.05
    )
    lam = complex(pair.value)
    path = tmp_path / "pal.mp.json"
    dst = tmp_path / "out.mp.json"
    write_poly(p, path)
    lam_txt = f"{lam.real!r}{'+' if lam.imag >= 0 else '-'}{abs(lam.imag)!r}i"
    code, out, _ = run(
        capsys, "shift", str(path), "--palindromic",
        f"--lambda={lam_txt}", "--mu", "0.25", "-o", str(dst),
    )
    assert code == 0 and "PASS" in out
    got = read_poly(dst)
    assert np.array_equal(got.coeffs[0], got.coeffs[2].conj().T)


def test_shift_multi_m2_cli(tmp_path, capsys):
    from mpshift.fixtures import p2

    path = tmp_path / "p2.mp.json"
    dst = tmp_path / "out.mp.json"
    spec = tmp_path / "packet.json"
    write_poly(p2(), path)
    # note: the +-i pair of this fixture shares one real eigenvector, so a
    # {i, -i} packet is genuinely dependent; pair i with i*sqrt(3) instead
    spec.write_text(
        json.dumps(
            {"lambdas": ["0+1i", "0+1.7320508075688772i"], "targets": ["0.3", "-0.3"]}
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "shift", str(path), "--multi", str(spec), "-o", str(dst))
    assert code == 0 and "PASS" in out


def test_shift_multi_dependent_packet_exits_2(tmp_path, capsys):
    from mpshift.fixtures import p2

    path = tmp_path / "p2.mp.json"
    spec = tmp_path / "packet.json"
    write_poly(p2(), path)
    spec.write_text(
        json.dumps({"lambdas": ["0+1i", "0-1i"], "targets": ["0.3", "-0.3"]}),
        encoding="utf-8",
    )
    code, _, err = run(
        capsys, "shift", str(path), "--multi", str(spec), "-o", str(tmp_path / "x.mp.json")
    )
    assert code == 2 and "error" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_shift_multi_overflow_exits_1(tmp_path, capsys, fmt):
    from mpshift import polyeig

    # two eigenvalues of a polynomial with entries near 1e300 moved to +-1e305
    rng = np.random.default_rng(1)
    p = MatrixPoly([1e300 * rng.standard_normal((4, 4)) for _ in range(3)])
    path, spec, dst = (tmp_path / name for name in ("big.mp.json", "packet.json", "out.mp.json"))
    write_poly(p, path)
    lams = [complex(q.value) for q in polyeig(p).pairs if not q.is_infinite][:2]
    spec.write_text(json.dumps({"lambdas": [f"{z.real!r}{z.imag:+}i" for z in lams],
                                "targets": ["1e305", "-1e305"]}), encoding="utf-8")
    code, out, err = run(capsys, "shift", str(path), "--multi", str(spec), "-o", str(dst),
                         "--format", fmt)
    assert code == 1 and out == "" and not dst.exists()
    assert err.splitlines() == ["error: 32 shifted coefficient entries are beyond double range"]


def test_shift_laurent_input_cli(tmp_path, capsys):
    rng = np.random.default_rng(409)
    lam = 0.5 + 0.2j
    u = np.zeros(3, dtype=complex)
    u[0] = 1.0
    p = LaurentPoly(-1, [rng.standard_normal((3, 3)) for _ in range(3)])
    from conftest import plant_right

    p = plant_right(p, lam, u)
    path = tmp_path / "laur.mp.json"
    dst = tmp_path / "out.mp.json"
    write_poly(p, path)
    code, out, _ = run(
        capsys, "shift", str(path), "--lambda", "0.5+0.2i", "--mu", "0.1",
        "--u", "1,0,0", "-o", str(dst),
    )
    assert code == 0 and "PASS" in out
    assert isinstance(read_poly(dst), LaurentPoly)


def test_check_fit_constant_cli(tmp_path, capsys):
    from mpshift import shift_from_infinity
    from mpshift.fixtures import p2

    src = tmp_path / "p2.mp.json"
    dst = tmp_path / "t1.mp.json"
    write_poly(p2(), src)
    write_poly(shift_from_infinity(p2(), 1.0, [1, 0, 0]), dst)
    code, out, _ = run(
        capsys, "check", str(src), str(dst), "--added", "1", "--fit-constant"
    )
    assert code == 0 and "PASS" in out


def test_eig_numeric_failure_exits_1(tmp_path, capsys):
    # det A(z) identically zero: a numeric failure, not a parse error
    degenerate = MatrixPoly(
        [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
    )
    path = tmp_path / "degen.mp.json"
    write_poly(degenerate, path)
    code, _, err = run(capsys, "eig", str(path))
    assert code == 1 and "error" in err


# --- JSON encoding ---

@pytest.mark.parametrize(
    "entry", ["[NaN, 0]", "[0, Infinity]", "[1e999, 0]", "[1" + "0" * 400 + ", 0]"],
    ids=["nan", "inf", "1e999", "int-1e400"],
)
def test_eig_nonfinite_entry_exits_2_with_location(tmp_path, capsys, entry):
    path = tmp_path / "bad.mp.json"
    path.write_text(
        f'{{"n": 2, "lo": 0, "coeffs": [[[[1, 0], [0, 0]], [[0, 0], {entry}]]]}}',
        encoding="utf-8",
    )
    code, _, err = run(capsys, "eig", str(path))
    assert code == 2
    assert err.startswith("error: coeffs[0][1][1]:") and "Traceback" not in err


def _per_entry_json(mat):
    """Reference encoder: one Python [re, im] list per entry."""
    mat = np.asarray(mat)
    if mat.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in mat]
    return [_per_entry_json(row) for row in mat]


def test_matrix_json_matches_per_entry_encoding():
    vals = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1.0, 0.1, 1e16]
    mat = np.array([complex(a, b) for a in vals for b in vals]).reshape(7, 7)
    for m in (mat, mat[1], mat.T, mat.real, np.eye(3)):
        assert json.dumps(cli.matrix_json(m)) == json.dumps(_per_entry_json(m))


def _per_entry_complex(z):
    """Reference table text of one entry: ``RE+IMi`` or ``RE-IMi`` from two reprs, or ``Inf``."""
    if not cmath.isfinite(complex(z)):
        return "Inf"
    re_part = repr(float(z.real))
    im = float(z.imag)
    sign = "+" if (im > 0 or (im == 0 and not math.copysign(1.0, im) < 0)) else "-"
    return f"{re_part}{sign}{abs(im)!r}i"


def _per_entry_matrix(mat, indent="  "):
    """Reference table matrix: one :func:`_per_entry_complex` per entry."""
    lines = []
    for row in np.asarray(mat):
        lines.append(indent + "  ".join(_per_entry_complex(v) for v in row))
    return "\n".join(lines)


def _table_corpus():
    """Seeded complex matrices, n <= 7, over the layouts repr uses: real parts over 1e+-20,
    the 1e-4 and 1e16 switches to exponent form, 5e-324, signed zeros, inf and nan."""
    rng = np.random.default_rng(26)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0),
             -1e-05, 1.7976931348623157e308, 0.1, 1.0]
    imags = [0.0, -0.0, 1e-5, -1e-5, 1.0, -3.0, 1e17, 5e-324, -1e-4, 1e16]
    specials = [math.inf, -math.inf, math.nan]
    for _ in range(400):
        shape = tuple(rng.integers(1, 8, size=2))
        re = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-20, 20, shape)
        re = np.where(rng.random(shape) < 0.2, rng.choice(edges, shape), re)
        im = np.where(rng.random(shape) < 0.3, rng.standard_normal(shape), rng.choice(imags, shape))
        mat = re + 1j * im
        for part in (mat.real, mat.imag):  # 20% signed zeros, a few non-finite entries
            part[rng.random(shape) < 0.2] = rng.choice([0.0, -0.0])
            part[rng.random(shape) < 0.03] = rng.choice(specials)
        yield mat


def test_table_texts_match_per_entry_formatting():
    for mat in _table_corpus():
        for m in (mat, mat.T, mat.real):
            assert cli.complex_texts(m) == [_per_entry_complex(z) for z in m.ravel()]
            assert cli.fmt_matrix(m) == _per_entry_matrix(m)
    assert cli.complex_texts([]) == []
    assert cli.complex_texts([complex(-0.0, -0.0), 1e16 - 1e-5j]) == ["-0.0-0.0i", "1e+16-1e-05i"]


def _report_commands(tmp_path):
    from mpshift.fixtures import p3

    p3_path, p1_path, quad = (str(tmp_path / f) for f in ("p3.mp.json", "p1.mp.json", "q.mp.json"))
    write_poly(p3(), p3_path)
    write_poly(fixture_p1(), p1_path)
    b1 = np.array([[1.0, 0.1], [0.0, 1.0]])
    write_poly(LaurentPoly(-1, (-0.25 * np.eye(2), b1, -0.25 * np.eye(2))), quad)
    return [
        ["solve", p3_path],
        ["solve", p3_path, "--shift", "1,0", "--u", "1,1,1,1,1", "--v", "0.2,0.2,0.2,0.2,0.2"],
        ["factor", quad, "--quad", "--both"],
        ["eig", p1_path, "--left"],
    ]


def test_json_reports_match_per_entry_encoding(tmp_path, capsys, monkeypatch):
    reports = []
    for argv in _report_commands(tmp_path):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        reports.append(out)
    assert "-0.0" in reports[0]  # G of p3 has signed-zero entries
    monkeypatch.setattr(cli, "matrix_json", _per_entry_json)
    monkeypatch.setattr(cli, "array_json", lambda m: json.dumps(_per_entry_json(m)))
    for argv, out in zip(_report_commands(tmp_path), reports):
        assert run(capsys, *argv, "--format", "json")[1] == out


def test_table_reports_match_per_entry_formatting(tmp_path, capsys, monkeypatch):
    from conftest import critical_qbd
    from mpshift.fixtures import p2

    p2_path, qbd = tmp_path / "p2.mp.json", tmp_path / "qbd50.mp.json"
    write_poly(p2(), p2_path)
    write_poly(LaurentPoly(-1, critical_qbd(3, 50, 5e-3, 0.99)), qbd)
    commands = [*_report_commands(tmp_path), ["eig", str(p2_path)],
                ["factor", str(qbd), "--quad", "--both"]]
    reports = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 for code, _, _ in reports)
    assert "Inf" in reports[-2][1] and "recovered from" in reports[1][1]
    monkeypatch.setattr(cli, "fmt_matrix", _per_entry_matrix)
    monkeypatch.setattr(cli, "complex_texts", lambda v: list(map(_per_entry_complex, np.ravel(v))))
    for argv, report in zip(commands, reports):
        assert run(capsys, *argv) == report


# --- usage errors and error exits ---

def _inputs(tmp_path):
    from mpshift.fixtures import p2, p3

    paths = {"out": tmp_path / "out.mp.json", "packet": tmp_path / "packet.json", "dir": tmp_path}
    for name, poly in (("p1", fixture_p1()), ("p2", p2()), ("p3", p3())):
        paths[name] = tmp_path / f"{name}.mp.json"
        write_poly(poly, paths[name])
    paths["packet"].write_text(json.dumps({"lambdas": ["1"], "targets": ["0"]}), encoding="utf-8")
    return paths


def _run_template(tmp_path, capsys, argv):
    paths = _inputs(tmp_path)
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    return code, out, err, paths


@pytest.mark.parametrize(
    "argv",
    [
        ("shift", "{p1}", "--lambda", "1", "--mu", "0", "--u", "1,0", "--v", "0,1", "-o", "{out}"),
        ("solve", "{p3}", "--shift", "1,0", "--u", "1,1,1,1,1", "--v", "1,-1,0,0,0"),
    ],
    ids=["shift", "solve_shift"],
)
def test_orthogonal_dual_vector_exits_1(tmp_path, capsys, argv):
    code, out, err, _ = _run_template(tmp_path, capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: dual vector is orthogonal to the shift vector\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("shift", "{p1}", "--lambda=1e200", "--mu=0", "--u=1,0", "-o", "{out}"),
         "right eigenpair residual 8.45e-01 exceeds 1e-08"),
        (("shift", "{p1}", "--lambda=1e200", "--mu=0", "--side", "left", "--v=1,0", "-o", "{out}"),
         "left eigenpair residual 8.02e-01 exceeds 1e-08"),
        (("shift", "{p1}", "--lambda=1e100", "--mu=0", "--u=1,0", "-o", "{out}"),
         "right eigenpair residual 8.45e-01 exceeds 1e-08"),
        (("solve", "{p1}", "--shift", "1e200,0", "--u=1,0"),
         "right eigenpair residual 8.45e-01 exceeds 1e-08"),
    ],
    ids=["shift_right", "shift_left", "shift_1e100", "solve_shift"],
)
def test_huge_lambda_fails_the_eigenpair_gate(tmp_path, capsys, argv, message):
    # sum_i ||A_i|| |lambda|^i overflows at these lambdas (an OverflowError
    # from 1e200 on), so the gate must not form it
    code, out, err, paths = _run_template(tmp_path, capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert not paths["out"].exists()


def test_infinite_double_shift_exits_1(tmp_path, capsys):
    # an infinite lambda on the right spec of a double shift is still not an infinity shift
    argv = ("shift", "{p1}", "--double", "--lambda", "inf", "--mu", "3",
            "--lambda2", "0.5", "--mu2", "0.1", "-o", "{out}")
    code, out, err, paths = _run_template(tmp_path, capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: an infinite lambda or mu needs a single right shift\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--removed", "1,inf"], "--removed takes finite values"),
        (["--added", "inf"], "--added takes finite values"),
        (["--samples=-3"], "--samples must be at least 1, got -3"),
        (["--samples", "0"], "--samples must be at least 1, got 0"),
    ],
    ids=["removed_inf", "added_inf", "samples_negative", "samples_zero"],
)
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_check_rejects_bad_values(tmp_path, capsys, flags, message, fmt):
    argv = ["check", "{p1}", "{p1}", *flags, "--format", fmt]
    code, out, err, _ = _run_template(tmp_path, capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "{p3}", "--u", "1,1,1,1,1"), "--u does not apply to cr solves"),
        (("solve", "{p3}", "--v", "auto"), "--v does not apply to cr solves"),
        (("solve", "{p3}", "--method", "eigen", "--shift", "1,0"),
         "conflicting solve modes: shift, eigen"),
        (("shift", "{p1}", "--lambda", "1", "--mu", "0", "--lambda2", "0.5"),
         "--lambda2 does not apply to single shifts"),
        (("shift", "{p1}", "--lambda", "1", "--mu", "0", "--mu2", "2"),
         "--mu2 does not apply to single shifts"),
        (("shift", "{p1}", "--to-inf", "--lambda", "0.5", "--mu", "0"),
         "--mu does not apply to to-inf shifts"),
        (("shift", "{p2}", "--from-inf", "--lambda", "1", "--mu", "1"),
         "--lambda does not apply to from-inf shifts"),
        (("shift", "{p1}", "--multi", "{packet}", "--u", "1,0"), "--u does not apply to multi shifts"),
        (("shift", "{p1}", "--palindromic", "--lambda", "1", "--mu", "0", "--v", "1,0"),
         "--v does not apply to palindromic shifts"),
        (("shift", "{p1}", "--double", "--lambda", "1", "--mu", "0", "--lambda2", "0.5",
          "--mu2", "2", "--side", "left"), "--side does not apply to double shifts"),
        (("shift", "{p2}", "--lambda", "inf", "--mu", "1", "--side", "left"),
         "--side left does not apply to infinity shifts"),
        (("solve", "{p3}", "--seed", "1"), "--seed does not apply to cr solves"),
        (("solve", "{p3}", "--shift", "1,0", "--seed", "1"),
         "--seed does not apply to shift solves"),
        (("solve", "{p3}", "--method", "eigen", "--tol", "5"), "--tol does not apply to eigen solves"),
        (("solve", "{p3}", "--method", "eigen", "--maxit", "1"),
         "--maxit does not apply to eigen solves"),
        (("solve", "{p3}", "--method", "eigen", "--tol", "5", "--maxit", "1"),
         "--maxit does not apply to eigen solves"),
        (("solve", "{p3}", "--method", "eigen", "--tol", "1e-14"),
         "--tol does not apply to eigen solves"),
    ],
    ids=[
        "solve_u", "solve_v", "solve_eigen_shift", "shift_lambda2", "shift_mu2", "to_inf_mu",
        "from_inf_lambda", "multi_u", "palindromic_v", "double_side", "infinity_side_left",
        "solve_seed", "solve_shift_seed", "solve_eigen_tol", "solve_eigen_maxit",
        "solve_eigen_tol_maxit", "solve_eigen_default_tol",
    ],
)
def test_flags_the_mode_ignores_are_usage_errors(tmp_path, capsys, argv, message):
    if argv[0] == "shift":
        argv += ("-o", "{out}")
    code, out, err, paths = _run_template(tmp_path, capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "{p3}"),
        ("solve", "{p3}", "--shift", "1,0"),
        ("factor", "{p1}"),
        ("factor", "{quad}", "--quad", "--both"),
    ],
    ids=["solve", "solve_shift", "factor_poly", "factor_quad"],
)
def test_cyclic_reduction_reads_its_default_tol_and_maxit(tmp_path, capsys, argv):
    # leaving --tol and --maxit out is the same run as passing their defaults
    from conftest import critical_qbd

    quad = tmp_path / "quad.mp.json"
    write_poly(LaurentPoly(-1, critical_qbd(3, 6, 5e-3, 0.99)), quad)
    argv = tuple(a.replace("{quad}", str(quad)) for a in argv) + ("--format", "json")
    implicit = _run_template(tmp_path, capsys, argv)[:3]
    explicit = _run_template(tmp_path, capsys, argv + ("--tol", "1e-14", "--maxit", "64"))[:3]
    assert implicit[0] == 0 and implicit == explicit


@pytest.mark.parametrize(
    "argv",
    [
        ("fixture", "p1", "-o", "{out}", "--seed", "1"),
        ("fixture", "p1", "-o", "{out}", "--tol", "5"),
        ("eig", "{p1}", "--tol", "5"),
        ("shift", "{p1}", "--lambda", "1", "--mu", "0", "-o", "{out}", "--tol", "5"),
        ("check", "{p1}", "{p1}", "--tol", "5"),
        ("factor", "{p3}", "--seed", "1"),
    ],
    ids=["fixture_seed", "fixture_tol", "eig_tol", "shift_tol", "check_tol", "factor_seed"],
)
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, argv):
    code, out, err, paths = _run_template(tmp_path, capsys, argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("eig", "{dir}"),
        ("shift", "{p1}", "--lambda", "1", "--mu", "0", "-o", "{dir}"),
        ("shift", "{p1}", "--multi", "{dir}", "-o", "{out}"),
    ],
    ids=["eig_input", "shift_output", "multi_packet"],
)
def test_directory_in_place_of_a_file_exits_2(tmp_path, capsys, argv):
    code, out, err, paths = _run_template(tmp_path, capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not paths["out"].exists()


def test_solve_eigen_reads_seed(tmp_path, capsys):
    code, out, _, _ = _run_template(
        tmp_path, capsys, ("solve", "{p3}", "--method", "eigen", "--seed", "7", "--format", "json")
    )
    assert code == 0 and json.loads(out)["residual"] <= 1e-10


def test_solve_eigen_runs_no_cyclic_reduction_step(tmp_path, capsys):
    # iterations counts cyclic reduction steps, and the eigen method runs none
    from mpshift import solve_unilateral
    from mpshift.fixtures import p3

    assert solve_unilateral(p3(), method="eigen").iterations == 0
    assert solve_unilateral(p3()).iterations == 12
    code, out, _, _ = _run_template(
        tmp_path, capsys, ("solve", "{p3}", "--method", "eigen", "--format", "json")
    )
    assert code == 0 and json.loads(out)["iterations"] == 0


def test_bad_complex_literal_is_a_usage_error(tmp_path, capsys):
    argv = ("shift", "{p1}", "--lambda", "1+", "--mu", "0", "-o", "{out}")
    code, out, err, _ = _run_template(tmp_path, capsys, argv)
    assert (code, out) == (2, "")
    assert "argument --lambda: invalid parse_complex value: '1+'" in err


def test_matrix_json_rejects_non_arrays():
    # the JSON report's encoder falls back to matrix_json, which must not turn
    # a stray scalar into a [re, im] pair
    for value in (np.int64(3), np.bool_(True), object()):
        with pytest.raises(TypeError):
            cli.matrix_json(value)


# --- literals beyond double range ---

@pytest.mark.parametrize("text", ["1e400", "-1e400", "1+1e400i", "2e308-1i", "1e400+1e400i"])
def test_parse_complex_rejects_overflow(text):
    with pytest.raises(cli.UsageError, match="out of double range"):
        parse_complex(text)


def test_parse_complex_keeps_the_largest_double():
    assert parse_complex("1.7976931348623157e308-1e-320i") == complex(1.7976931348623157e308, -1e-320)


_BAD_VECTORS = [("inf,0", "non-finite component"), ("0,inf", "non-finite component"),
                ("Infinity,1", "non-finite component"),
                # an empty component was dropped: '1,,0' read as (1, 0)
                ("1,,0", "vector '1,,0' has an empty component"),
                (",1", "vector ',1' has an empty component"),
                ("1,0,", "vector '1,0,' has an empty component"),
                ("1, ,0", "vector '1, ,0' has an empty component")]


@pytest.mark.parametrize("text, message", _BAD_VECTORS, ids=[t for t, _ in _BAD_VECTORS])
def test_parse_vector_rejects_non_finite_components(text, message):
    with pytest.raises(cli.UsageError, match=re.escape(message)):
        cli.parse_vector(text, 2)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "{p3}", "--shift", "1,1e400"), "complex literal '1e400' is out of double range"),
        (("solve", "{p3}", "--shift", "1e400"), "complex literal '1e400' is out of double range"),
        (("solve", "{p3}", "--shift", "1,0", "--u", "inf,0,0,0,0"),
         "vector 'inf,0,0,0,0' has a non-finite component"),
        (("solve", "{p3}", "--shift", "1,0", "--u", "1e400,0,0,0,0"),
         "complex literal '1e400' is out of double range"),
        (("solve", "{p3}", "--shift", "1,0", "--v", "inf,1,1,1,1"),
         "vector 'inf,1,1,1,1' has a non-finite component"),
        (("shift", "{p1}", "--lambda", "1", "--mu", "0", "--u", "inf,0", "-o", "{out}"),
         "vector 'inf,0' has a non-finite component"),
        (("shift", "{p1}", "--lambda", "1", "--mu", "0", "--v", "1,1e400", "-o", "{out}"),
         "complex literal '1e400' is out of double range"),
        (("check", "{p1}", "{p1}", "--removed", "1e400"),
         "complex literal '1e400' is out of double range"),
        # an infinite --shift value is a usage error, as an infinite --removed is
        (("solve", "{p3}", "--shift", "inf"), "--shift takes finite values"),
        (("solve", "{p3}", "--shift", "1,inf"), "--shift takes finite values"),
        # an empty component was dropped: ',1' ran as lambda 1, '1,,0' as u = (1, 0)
        (("solve", "{p3}", "--shift", ",1"), "--shift ',1' has an empty component"),
        (("shift", "{p1}", "--lambda", "1", "--mu", "0", "--u", "1,,0", "-o", "{out}"),
         "vector '1,,0' has an empty component"),
        (("check", "{p1}", "{p1}", "--removed", "1,,", "--added", ",0"),
         "--removed '1,,' has an empty component"),
        (("check", "{p1}", "{p1}", "--removed", "1", "--added", ",0"),
         "--added ',0' has an empty component"),
    ],
    ids=["solve_mu", "solve_lambda", "solve_u_inf", "solve_u_overflow", "solve_v_inf",
         "shift_u_inf", "shift_v_overflow", "check_removed", "solve_lambda_inf", "solve_mu_inf",
         "solve_shift_empty", "shift_u_empty", "check_removed_empty", "check_added_empty"],
)
def test_non_finite_values_are_usage_errors(tmp_path, capsys, argv, message):
    code, out, err, paths = _run_template(tmp_path, capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not paths["out"].exists()


@pytest.mark.parametrize("flag", ["--lambda", "--mu"])
def test_overflowing_shift_flag_is_an_argparse_error(tmp_path, capsys, flag):
    values = {"--lambda": "1", "--mu": "1"}
    values[flag] = "1e400"
    argv = ("shift", "{p1}", *(x for f, v in values.items() for x in (f, v)), "-o", "{out}")
    code, out, err, paths = _run_template(tmp_path, capsys, argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}: invalid parse_complex value: '1e400'" in err
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "packet",
    [{"lambdas": ["1"], "targets": ["inf"]}, {"lambdas": [1], "targets": [float("inf")]},
     {"lambdas": ["inf"], "targets": ["0"]}],
    ids=["target_inf", "target_json_infinity", "lambda_inf"],
)
def test_multi_packet_with_an_infinite_value_exits_2(tmp_path, capsys, packet):
    paths = _inputs(tmp_path)
    paths["packet"].write_text(json.dumps(packet), encoding="utf-8")
    code, out, err = run(capsys, "shift", str(paths["p1"]), "--multi", str(paths["packet"]),
                         "-o", str(paths["out"]))
    assert (code, out) == (2, "")
    assert err == f"error: {paths['packet']}: lambdas and targets must be finite\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "packet, message",
    [([1, 2], "top-level value must be an object"),
     ({"lambdas": 1, "targets": ["0"]}, "lambdas and targets must be equal-length non-empty lists"),
     ({"lambdas": "12", "targets": ["0", "0.5"]},
      "lambdas and targets must be equal-length non-empty lists"),
     ({"lambdas": [True], "targets": [0]},
      "lambdas and targets must hold numbers or complex literals, got true"),
     ({"lambdas": [1], "targets": [None]},
      "lambdas and targets must hold numbers or complex literals, got null"),
     ({"lambdas": [[1, 0]], "targets": [0]},
      "lambdas and targets must hold numbers or complex literals, got [1, 0]"),
     ({"lambdas": ["1+"], "targets": [0]}, "cannot parse complex literal '1+'"),
     ({"lambdas": [1], "targets": ["1e400"]}, "complex literal '1e400' is out of double range")],
    ids=["top_level_array", "lambdas_number", "lambdas_string", "lambda_true", "target_null",
         "lambda_list", "lambda_bad_literal", "target_overflow"],
)
def test_malformed_multi_packet_exits_2(tmp_path, capsys, packet, message):
    # an array or number raised a TypeError traceback; a string was read as its characters;
    # true was read as the literal 'True', and a bad literal's error did not name the file
    paths = _inputs(tmp_path)
    paths["packet"].write_text(json.dumps(packet), encoding="utf-8")
    code, out, err = run(capsys, "shift", str(paths["p3"]), "--multi", str(paths["packet"]),
                         "-o", str(paths["out"]))
    assert (code, out) == (2, "")
    assert err == f"error: {paths['packet']}: {message}\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize("lam", ["1e6", "1e100", "1e200", "1e300", "-1e300+1e300i"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_far_shift_with_automatic_vectors_fails_the_eigenpair_gate(tmp_path, capsys, lam, side):
    # the automatic vector of A(1e200) was NaN: three warnings, then a dual-vector error
    argv = ("shift", "{p1}", f"--lambda={lam}", "--mu=0", "--side", side, "-o", "{out}")
    code, out, err, paths = _run_template(tmp_path, capsys, argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"error: {side} eigenpair residual \S+ exceeds 1e-08\n", err)
    assert not paths["out"].exists()


def test_far_multi_packet_fails_the_invariant_pair_gate(tmp_path, capsys):
    # the automatic vector of A(1e200) ended in an SVD traceback
    paths = _inputs(tmp_path)
    paths["packet"].write_text(json.dumps({"lambdas": ["1e200", "1"], "targets": ["0", "0.5"]}),
                               encoding="utf-8")
    code, out, err = run(capsys, "shift", str(paths["p3"]), "--multi", str(paths["packet"]),
                         "-o", str(paths["out"]))
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: invariant-pair residual \S+ exceeds 1e-08\n", err)
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("shift", "{p1}", "--to-inf", "--lambda", "0", "-o", "{out}"), "lambda must be nonzero"),
        (("shift", "{p1}", "--to-inf", "--lambda", "inf", "-o", "{out}"),
         "both lambda and mu are infinite; nothing to shift"),
        (("shift", "{p1}", "--lambda", "inf", "--mu", "inf", "-o", "{out}"),
         "both lambda and mu are infinite; nothing to shift"),
        (("shift", "{p2}", "--from-inf", "--mu", "1", "--u", "0,1,0", "-o", "{out}"),
         "||A_d u|| residual 7.07e-01 exceeds 1e-08"),
        (("shift", "{p1}", "--to-inf", "--lambda", "0.7", "--u", "1,0", "-o", "{out}"),
         "right eigenpair residual 4.83e-02 exceeds 1e-08"),
    ],
    ids=["to_inf_zero", "to_inf_inf", "single_inf_inf",
         "from_inf_kernel", "to_inf_eigenpair"],
)
def test_infinity_error_paths_exit_1(tmp_path, capsys, argv, message):
    code, out, err, paths = _run_template(tmp_path, capsys, argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "single, mode",
    [
        (("{p2}", "--lambda", "inf", "--mu", "1", "--u", "1,0,0"),
         ("{p2}", "--from-inf", "--mu", "1", "--u", "1,0,0")),
        (("{p2}", "--lambda", "inf", "--mu", "0.5-0.25i", "--v", "1,2,3"),
         ("{p2}", "--from-inf", "--mu", "0.5-0.25i", "--v", "1,2,3")),
        (("{p1}", "--lambda", "0.5", "--mu", "inf"), ("{p1}", "--to-inf", "--lambda", "0.5")),
        (("{p1}", "--lambda", "0.5", "--mu", "inf", "--v", "1,0.3"),
         ("{p1}", "--to-inf", "--lambda", "0.5", "--v", "1,0.3")),
    ],
    ids=["from_inf", "from_inf_dual", "to_inf", "to_inf_dual"],
)
def test_infinity_spellings_write_the_same_file(tmp_path, capsys, single, mode):
    # an infinite --lambda or --mu and the --from-inf/--to-inf modes take one route
    paths = _inputs(tmp_path)
    written = []
    for k, argv in enumerate((single, mode)):
        dst = tmp_path / f"spelling{k}.mp.json"
        code, out, err = run(capsys, "shift", *(a.format(**paths) for a in argv), "-o", str(dst))
        assert (code, err) == (0, "") and "oracle: PASS" in out
        written.append(dst.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("lam", [1e6, 1e150, 1e300])
def test_shift_to_infinity_of_a_far_eigenvalue(tmp_path, capsys, lam):
    # from 1e150 on the planted A_0 dominates on the oracle's circles, so det a(z)
    # is numerically zero there; 1e300 ended in an SVD traceback
    from conftest import far_quadratic

    path, dst = tmp_path / "far.mp.json", tmp_path / "out.mp.json"
    write_poly(far_quadratic(lam)[0], path)
    code, out, err = run(capsys, "shift", str(path), "--to-inf", f"--lambda={lam!r}", "-o", str(dst))
    if lam < 1e150:
        assert code == 0 and "oracle: PASS" in out and err == ""
    else:
        assert (code, err) == (1, "error: det a(z) vanishes at every sample point\n")


@pytest.mark.parametrize(
    "alpha, quad",
    [(1e-300, True), (1e300, True), (1e300, False)],
    ids=["both_1e-300", "both_1e300", "poly_1e300"],
)
def test_factor_at_extreme_coefficient_scales(tmp_path, capsys, alpha, quad):
    # the reversed factorization's H_0 series stalled at 1e-300, and norms of
    # the raw blocks overflowed at 1e300 (a NaN residual, exit 1)
    from conftest import critical_qbd

    blocks = [alpha * b for b in critical_qbd(3, 20, 5e-3, 0.99)]
    path = tmp_path / "scaled.mp.json"
    write_poly(LaurentPoly(-1, blocks) if quad else MatrixPoly(blocks), path)
    flags = ["--quad", "--both"] if quad else []
    code, out, err = run(capsys, "factor", str(path), *flags, "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    for key in ("residual", "reversed_residual") if quad else ("residual",):
        assert 0 < report[key] <= 1e-10
