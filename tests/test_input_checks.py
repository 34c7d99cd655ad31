"""Every input check that raises before any numerics: its error class and message.

The numerical gates are in ``test_gates.py``; the rows below are the checks on
shapes, degrees, flags and values that reject an input outright.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from mpshift import (
    LaurentPoly,
    MatrixPoly,
    MultiShiftSpec,
    ShiftSpec,
    cr_quadratic,
    det_ratio_oracle,
    inverse_coefficients,
    poly_factorization,
    read_poly,
    refine_pair,
    shift_accelerated_solve,
    shifted_factorization,
    solve_unilateral,
)
from mpshift import cli
from mpshift import fixtures as fx
from mpshift.core import INF
from mpshift.errors import (
    DegenerateShift,
    DimensionMismatch,
    ModulusConstraintViolated,
    ParseError,
    SingularPivot,
    SplittingFailure,
    UnknownFixture,
    ZeroLambda,
)
from mpshift.spectra import companion_pencil

E = np.eye(2)
E1 = [1.0, 0.0]


EMPTY_COEFFS = '{"n": 2, "lo": 0, "coeffs": []}'


def _read_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.mp.json"
        path.write_text(text, encoding="utf-8")
        return read_poly(path)


def _double_shift(lam1, lam2):
    right = ShiftSpec(lam1, 0.1, E1)
    left = ShiftSpec(lam2, 3.0, E1, side="left")
    shifted_factorization([E], [E], right, left)


# call, error class, message
CHECKS = [
    # core
    (lambda: LaurentPoly(0, [E, np.eye(3)]), DimensionMismatch,
     "coefficient 1 has size 3, expected 2"),
    (lambda: LaurentPoly(1, [E]), DimensionMismatch, "lo must be <= 0, got 1"),
    (lambda: LaurentPoly(-2, [E, E]), DimensionMismatch, "hi must be >= 0, got -1"),
    (lambda: _read_text(EMPTY_COEFFS), ParseError, "field 'coeffs': expected a non-empty array"),
    (lambda: det_ratio_oracle(fx.p1(), fx.p2()), DimensionMismatch,
     "operands have different dimensions"),
    (lambda: det_ratio_oracle(fx.p1(), fx.p1(), removed=[INF]), ValueError,
     "oracle factors must be finite; handle infinity via fit_constant"),
    # equations
    (lambda: solve_unilateral(MatrixPoly([E, np.zeros((2, 2))])), SingularPivot,
     "singular pivot at cyclic reduction step 0"),
    (lambda: solve_unilateral(MatrixPoly([-0.5 * E, np.diag([1.0, 0.0])]), method="eigen"),
     SplittingFailure, "only 1 finite eigenvalues; cannot select 2 inside a circle"),
    (lambda: solve_unilateral(MatrixPoly([E])), DimensionMismatch,
     "the equation needs degree >= 1"),
    (lambda: solve_unilateral(fx.p1(), method="newton"), ValueError, "unknown method 'newton'"),
    (lambda: shift_accelerated_solve(fx.p1(), INF, E1), DegenerateShift,
     "finite lambda and mu are required here"),
    (lambda: shift_accelerated_solve(fx.p1(), 1.0, E1, mu=INF), DegenerateShift,
     "finite lambda and mu are required here"),
    # factorizations
    (lambda: cr_quadratic(E, np.eye(3), E), DimensionMismatch,
     "coefficients must be square and equally sized"),
    (lambda: inverse_coefficients(cr_quadratic([[-0.25]], [[1.0]], [[-0.25]]), -1), ValueError,
     "m must be nonnegative"),
    (lambda: _double_shift(1.5, 2.0), ModulusConstraintViolated,
     "right pair must lie inside the unit circle (|lambda|=1.5000, |mu|=0.1000)"),
    (lambda: _double_shift(0.5, 0.5), ModulusConstraintViolated,
     "left pair must lie outside the unit circle (|lambda|=0.5000, |mu|=3.0000)"),
    (lambda: _double_shift(0.0, 2.0), ZeroLambda, "lambda = 0 is outside the annulus"),
    (lambda: shifted_factorization([E], [E], ShiftSpec(1.0, 0.1, E1)), ModulusConstraintViolated,
     "right pair must lie inside the unit circle (|lambda|=1.0000, |mu|=0.1000)"),
    (lambda: poly_factorization(fx.p1(), np.eye(3)), DimensionMismatch, "solvent must be 2x2"),
    # fixtures
    (lambda: fx.fixture("nope"), UnknownFixture,
     "unknown fixture 'nope'; available: p1, p2, p3"),
    # shifts
    (lambda: ShiftSpec(0.5, 0.1, E1, [1.0, 0.0, 0.0]), DimensionMismatch,
     "dual vector has a different length"),
    (lambda: MultiShiftSpec(E, E, np.zeros((2, 2))), DimensionMismatch,
     "packet size m=2 must be < n=2"),
    # spectra
    (lambda: companion_pencil(MatrixPoly([E])), DimensionMismatch,
     "companion pencil needs degree >= 1"),
    (lambda: refine_pair(fx.p1(), INF, E1), DimensionMismatch,
     "refine_pair handles finite eigenvalues only"),
]


@pytest.mark.parametrize("call, error, message", CHECKS, ids=[c[2] for c in CHECKS])
def test_input_check_raises_its_error(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_empty_coeffs_exit_2_through_the_cli(tmp_path, capsys):
    path = tmp_path / "p.mp.json"
    path.write_text(EMPTY_COEFFS, encoding="utf-8")
    assert cli.main(["eig", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: field 'coeffs': expected a non-empty array\n")
