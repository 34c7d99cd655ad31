"""Every input check that raises before any numerics: its error class and message.

The numerical gates are in ``test_gates.py``; the rows below are the checks on
shapes, degrees, flags and values that reject an input outright.
"""

import numpy as np
import pytest

from mpshift import (
    EigenPair,
    LaurentPoly,
    MatrixPoly,
    MultiShiftSpec,
    ShiftSpec,
    cr_quadratic,
    det_ratio_oracle,
    double_shift_factorization,
    invariant_pair,
    inverse_coefficients,
    poly_factorization,
    polyeig,
    refine_pair,
    shift_accelerated_solve,
    solve_unilateral,
)
from mpshift import fixtures as fx
from mpshift.core import INF
from mpshift.errors import (
    DegenerateShift,
    DimensionMismatch,
    DistinctnessViolated,
    ModulusConstraintViolated,
    SingularPivot,
    SplittingFailure,
    UnknownFixture,
    ZeroLambda,
)
from mpshift.spectra import companion_pencil

E = np.eye(2)
E1 = [1.0, 0.0]


def _double_shift(lam1, lam2):
    right = ShiftSpec(lam1, 0.1, E1)
    left = ShiftSpec(lam2, 3.0, E1, side="left")
    double_shift_factorization([E], [E], right, left)


# call, error class, message
CHECKS = [
    # core
    (lambda: LaurentPoly(0, [E, np.eye(3)]), DimensionMismatch,
     "coefficient 1 has size 3, expected 2"),
    (lambda: LaurentPoly(1, [E]), DimensionMismatch, "lo must be <= 0, got 1"),
    (lambda: LaurentPoly(-2, [E, E]), DimensionMismatch, "hi must be >= 0, got -1"),
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
    (lambda: _double_shift(0.5, 0.5), ModulusConstraintViolated,
     "left pair must lie outside the unit circle (|lam2|=0.5000, |mu2|=3.0000)"),
    (lambda: _double_shift(0.0, 2.0), ZeroLambda,
     "lambda1 = 0 is outside the annulus of the factorization"),
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
    (lambda: invariant_pair(fx.p1(), []), DimensionMismatch, "at least one eigenpair is required"),
    (lambda: invariant_pair(fx.p2(), [EigenPair(INF, [1.0, 0.0, 0.0])]), DistinctnessViolated,
     "invariant pairs are built from finite eigenvalues"),
    (lambda: invariant_pair(fx.p1(), polyeig(fx.p1()).finite()[:2]), DimensionMismatch,
     "packet size m must be smaller than the dimension n"),
]


@pytest.mark.parametrize("call, error, message", CHECKS, ids=[c[2] for c in CHECKS])
def test_input_check_raises_its_error(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
