"""Exception types raised across the package.

Every error is a subclass of :class:`MpshiftError`, so callers can catch the
whole family with one clause.  Names describe the violated condition.  A
failed gate sets the fields ``name``, ``value`` and ``tol``, an iteration ``step``.
"""


class MpshiftError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, *args, name=None, value=None, tol=None, step=None):
        super().__init__(*args)
        self.name, self.value, self.tol, self.step = name, value, tol, step


# --- file input / output ---

class ParseError(MpshiftError):
    """Input file is malformed; the message carries line/field diagnostics."""


class DimensionMismatch(MpshiftError):
    """Matrix dimensions are inconsistent with the declared size."""


# --- evaluation ---

class ZeroAtNegativePower(MpshiftError):
    """Laurent polynomial with negative powers evaluated at z = 0."""


class DegeneratePolynomial(MpshiftError):
    """det A(z) vanishes identically (within tolerance at every probe)."""


# --- eigenvalue computations ---

class EigensolverFailure(MpshiftError):
    """The dense eigensolver failed or no usable spectral transform was found."""


class NoSplitting(MpshiftError):
    """No eigenvalues on one side of the unit circle; ratio undefined."""


# --- shift preconditions ---

class NotAnEigenpair(MpshiftError):
    """(lambda, u) does not satisfy A(lambda) u = 0 within tolerance."""


class NotInvariant(MpshiftError):
    """(U, Lambda) is not an invariant pair within tolerance."""


class NotInKernel(MpshiftError):
    """u is not in the kernel of the leading coefficient within tolerance."""


class NotPalindromic(MpshiftError):
    """Coefficients do not satisfy A_i = A_{d-i}^* within tolerance."""


class ZeroMu(MpshiftError):
    """Target mu = 0 is not allowed for this shift."""


class ZeroLambda(MpshiftError):
    """Eigenvalue lambda = 0 is not allowed for this shift."""


class ZeroLambdaWithNegativePowers(MpshiftError):
    """lambda = 0 cannot be shifted when negative powers are present."""


class SingularLambda(MpshiftError):
    """Lambda must be nonsingular to shift negative-power coefficients."""


class DegenerateShift(MpshiftError):
    """Shift parameters violate a non-degeneracy condition (e.g. U with dependent columns)."""


class ShiftOverflow(MpshiftError):
    """A shifted coefficient has an entry beyond double range."""


class ModulusConstraintViolated(MpshiftError):
    """A factor update's pair leaves its side of the unit circle: a right pair
    (lambda, mu) must lie inside it, a left pair outside."""


# --- factorizations and equations ---

class SingularPivot(MpshiftError):
    """Cyclic reduction hit a singular pivot block; ``step`` names the step."""


class NoConvergence(MpshiftError):
    """Iteration did not meet its stopping or residual criterion; ``step`` is
    set only where its iterates stopped being finite."""


class SingularH0(MpshiftError):
    """H_0 is numerically singular; the reversed factorization is undefined."""


class NotASolvent(MpshiftError):
    """G does not solve the unilateral matrix equation within tolerance."""


class SplittingFailure(MpshiftError):
    """Eigenvalues do not split across a circle; the minimal solvent is not isolated."""


class IllConditionedEigenbasis(MpshiftError):
    """Eigenvector basis too ill conditioned (dependent vectors) to form the solvent."""


# --- command line ---

class UnknownFixture(MpshiftError):
    """Requested fixture name is not one of the built-in ones."""
