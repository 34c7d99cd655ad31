"""Moving one eigenvalue of a matrix polynomial with a rank-one shift.

The built-in p1 fixture is a 2x2 quadratic with eigenvalues {1/3, 1/2, 1, 1}.
The double eigenvalue 1 is defective, so a dense eigensolver only resolves it
to about sqrt(machine epsilon).  Multiplying A(z) by
I + ((lambda - mu)/(z - lambda)) u v* moves lambda to mu while keeping every
other eigenvalue fixed -- and the rational factor cancels, leaving a plain
quadratic again.  After shifting one copy of the double root to 0, all four
eigenvalues are simple and come out to machine precision.

Shifts compose: a right shift and then a left shift of its result clear both
copies of the double root in one call.  The left vector w of A(1) is still a
left null vector of the right-shifted function at 1, because the root is
defective (w* A'(1) u = 0).
"""

import numpy as np

from mpshift import ShiftSpec, det_ratio_oracle, double_shift_laurent, polyeig, right_shift_poly
from mpshift.fixtures import p1

poly = p1()
print("coefficients of A(z) = A0 + z A1 + z^2 A2:")
for i, c in enumerate(poly.coeffs):
    print(f"A{i} =\n{c.real}")

print("\neigenvalues before the shift:")
for q in polyeig(poly).pairs:
    print(f"  {q.value:.16f}   residual {q.residual:.1e}")

# (1, e1) is an exact eigenpair; shift it to 0 with v = u
spec = ShiftSpec(lam=1.0, mu=0.0, vector=[1, 0], dual=[1, 0])
shifted = right_shift_poly(poly, spec)

print("\ncoefficients after shifting the eigenvalue 1 to 0 (exact integers):")
for i, c in enumerate(shifted.coeffs):
    print(f"A~{i} =\n{c.real}")

print("\neigenvalues after the shift:")
for q in polyeig(shifted).pairs:
    print(f"  {q.value:.16f}   residual {q.residual:.1e}")

report = det_ratio_oracle(poly, shifted, removed=[1.0], added=[0.0], samples=32)
print(f"\ndeterminant-ratio check  det A~(z)(z-1) == det A(z)(z-0):  {report}")

# sanity: the leading coefficient never changes under a right shift
assert np.array_equal(shifted.coeffs[2], poly.coeffs[2])

# both copies at once: right shift 1 -> 0.2 with u = e1, then a left shift of
# its result 1 -> 3 with w = (1, -2), the left null vector of A(1)
right = ShiftSpec(lam=1.0, mu=0.2, vector=[1, 0])
left = ShiftSpec(lam=1.0, mu=3.0, vector=[1, -2], side="left")
cleared = double_shift_laurent(poly, right, left)

print("\neigenvalues after moving both copies of 1, to 0.2 and to 3:")
for q in polyeig(cleared).pairs:
    print(f"  {q.value:.16f}   residual {q.residual:.1e}")

report = det_ratio_oracle(poly, cleared, removed=[1.0, 1.0], added=[0.2, 3.0], samples=32)
print(f"\ndeterminant-ratio check  det A~(z)(z-1)^2 == det A(z)(z-0.2)(z-3):  {report}")
