"""Every numerical gate, triggered once: its error class, name, tolerance, the
value it compared (one that fails the gate) and its message text.

Each gate is one call of ``core._check``; the table below names every gate
in the five numerical modules, and ``test_every_gate_is_in_the_table`` reads
the sources, so a new gate without a row fails.
"""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mpshift
from mpshift import (
    EigenPair,
    LaurentPoly,
    MatrixPoly,
    MultiShiftSpec,
    ShiftSpec,
    cr_quadratic,
    det_ratio_oracle,
    invariant_pair,
    multishift_laurent,
    multishift_pencil,
    palindromic_shift,
    poly_factorization,
    polyeig,
    reblock,
    reversed_factorization,
    right_shift_pencil,
    right_shift_poly,
    shift_accelerated_solve,
    shift_from_infinity,
    shift_to_infinity,
    shifted_factorization_both,
    shifted_factorization_right,
    solve_unilateral,
)
from mpshift import core, equations, factorizations, shifts
from mpshift import fixtures as fx
from mpshift.core import EIGENPAIR_TOL, RANK_TOL, RESIDUAL_TOL
from mpshift.errors import (
    DegeneratePolynomial,
    DegenerateShift,
    DependentEigenvectors,
    DimensionMismatch,
    DistinctnessViolated,
    IllConditionedEigenbasis,
    MpshiftError,
    NoConvergence,
    NotAnEigenpair,
    NotASolvent,
    NotInKernel,
    NotInvariant,
    NotPalindromic,
    ShiftOverflow,
    SingularH0,
    SingularLambda,
    SplittingFailure,
)
from mpshift.factorizations import RADIUS_MARGIN
from mpshift.equations import BOUNDARY_TOL

from conftest import critical_qbd, palindromic_quad, qbd_quadratic, rand_poly, shared_kernel_poly

E = np.eye(3)


def _printed(exc, pattern):
    """The numbers the message prints, after checking it against ``pattern``."""
    match = re.fullmatch(pattern, str(exc))
    assert match, str(exc)
    return [float(x) for x in match.groups()]


def _larger_of_two(exc, pattern):
    """A gate on two numbers carries the larger one; the message prints both."""
    printed = _printed(exc, pattern)
    assert f"{exc.value:.2e}" == f"{max(printed):.2e}"
    return str(exc)


def _relative(exc, pattern, scale):
    """The message prints the number in the input's units; the gate compares it over ``scale``."""
    (printed,) = _printed(exc, pattern)
    assert abs(exc.value * scale / printed - 1) <= 1e-2
    return str(exc)


# --- triggers: each builds the inputs of one failing gate and runs it ---

def _oracle_rank(mp):
    rng = np.random.default_rng(5)
    det_ratio_oracle(shared_kernel_poly(rng, 8, 2), rand_poly(rng, 8, 2))


def _polyeig_rank(mp):
    polyeig(MatrixPoly([np.diag([1.0, 2.0, 0.0])]))


def _pair_distinct(mp):
    invariant_pair(MatrixPoly([E, E]), [EigenPair(0.5, E[0]), EigenPair(0.5, E[1])])


def _pair_independent(mp):
    u = np.array([1.0, 0.0, 0.0])
    invariant_pair(MatrixPoly([E, E, E]), [EigenPair(0.5, u), EigenPair(0.6, u)])


def _pair_residual(mp):
    p = MatrixPoly([np.diag([-0.5, -0.6, 1.0]), E])  # eigenpairs (0.5, e1), (0.6, e2)
    invariant_pair(p, [EigenPair(0.5, E[0]), EigenPair(0.7, E[1])])


def _spec_dual(mp):
    ShiftSpec(0.5, 0.0, [1.0, 0.0], [0.0, 1.0])


def _multispec_dual(mp):
    u = E[:, :2]
    MultiShiftSpec(u, np.eye(2), np.zeros((2, 2)), 2 * u)


def _pencil_eigenpair(mp):
    right_shift_pencil(np.diag([1.0, 2.0]), ShiftSpec(1.5, 0.0, [1.0, 0.0]))


def _pencil_invariant(mp):
    multishift_pencil(np.diag([1.0, 2.0, 3.0]), MultiShiftSpec(E[0], [[1.5]], [[0.0]]))


def _multishift_rank(mp):
    p = LaurentPoly(-1, [np.eye(2)] * 3)
    multishift_laurent(p, MultiShiftSpec([1.0, 0.0], [[0.0]], [[0.5]]))


def _multishift_invariant(mp):
    multishift_laurent(fx.p1(), MultiShiftSpec([1.0, 0.0], [[0.3]], [[0.0]]))


def _shift_eigenpair(mp):
    right_shift_poly(fx.p1(), ShiftSpec(0.3, 0.0, [1.0, 0.0]))


def _shift_kernel(mp):
    shift_from_infinity(fx.p2(), 1.0, [0.0, 1.0, 0.0])


def _shift_finite(mp):
    # p3 near the top of double range with 1 sent to infinity; 1/mu = 4 overflows
    p = MatrixPoly([2.0**1023 * (2.2 / 1.12) * c for c in fx.p3().coeffs])
    t = shift_to_infinity(p, 1.0, np.ones(5))
    shift_from_infinity(t, 0.25, np.linalg.svd(t.coeffs[-1] / 2.0**1023)[2][-1].conj())


def _palindromic_input(mp):
    palindromic_shift(fx.p1(), 0.5, 0.25, [1.0, 0.0])


def _palindromic_eigenpair(mp):
    palindromic_shift(palindromic_quad(np.random.default_rng(3), 3), 0.5, 0.25, E[0])


def _palindromic_output(mp):
    # the output's deviation reads NaN; the input's is the real one
    p = palindromic_quad(np.random.default_rng(3), 3)
    q = polyeig(p).finite()[0]
    gap = shifts._palindromic_gap
    calls = []

    def second_is_nan(coeffs):
        calls.append(None)
        out = gap(coeffs)
        return out if len(calls) == 1 else (*out[:3], math.nan)

    mp.setattr(shifts, "_palindromic_gap", second_is_nan)
    palindromic_shift(p, q.value, 0.25 * q.value, q.right)


def _cr_stop(mp):
    rq = reblock(fx.p3())
    cr_quadratic(rq.bm1, rq.b0, rq.b1, maxit=1, strict_radius=False)


def _cr_stop_tol():
    """CR's stopping bound on p3's blocks: tol times the prescaled inf-norms' sum."""
    rq = reblock(fx.p3())
    (bm1, b0, b1), _, _ = core._pow2_scaled((rq.bm1, rq.b0, rq.b1))
    return 1e-14 * sum(np.linalg.norm(b, np.inf) for b in (bm1, b0, b1))


def _cr_finite(mp):
    cr_quadratic(np.array([[math.nan]]), np.array([[2.0]]), np.array([[1.0]]))


def _cr_residual(mp):
    cr_quadratic(*critical_qbd(3, 20, 5e-3, 0.99), tol=1e-2)


def _cr_radius(mp):
    cr_quadratic(*critical_qbd(3, 20, 5e-2))


def _canonical(seed=71):
    blocks = qbd_quadratic(np.random.default_rng(seed), 4)
    return blocks, cr_quadratic(*blocks)


def _reversed_rcond(mp):
    blocks, f = _canonical(73)
    b0, hhat, step = f.limits
    reversed_factorization(*blocks, replace(f, limits=(np.full_like(b0, math.nan), hhat, step)))


def _reversed_residual(mp):
    blocks, f = _canonical()
    mp.setattr(factorizations, "_quad_fact_residual", lambda *_: math.nan)
    reversed_factorization(*blocks, f)


def _inside_eigenpair(f):
    vals, vecs = np.linalg.eig(f.gplus)
    k = int(np.argmax(np.abs(vals)))
    return complex(vals[k]), vecs[:, k]


def _shifted_product(mp):
    _, f = _canonical()
    lam, u = _inside_eigenpair(f)
    shift_l = factorizations._shift_l
    mp.setattr(factorizations, "_shift_l", lambda l, spec: [c + 1e-3 for c in shift_l(l, spec)])
    shifted_factorization_right([f.kplus, -f.rplus @ f.kplus], [np.eye(4), -f.gplus],
                                lam, 0.4 * lam, u)


def _l_roots(mp):
    factorizations._check_l_outside_disk([np.eye(2), -2 * np.eye(2)])  # det L(w) = (1 - 2w)^2


def _degenerate_case():
    """A right shift lam -> 0 whose dual v has v* u = 1 and lam v* G- u = 1."""
    blocks, f = _canonical()
    rf = reversed_factorization(*blocks, f)
    lam, u = _inside_eigenpair(f)
    m = np.column_stack([u, rf.gminus @ u])
    return blocks, f, rf, lam, u, np.linalg.pinv(m.conj().T) @ np.array([1.0, 1.0 / np.conj(lam)])


def _both_degenerate(mp):
    blocks, f, rf, lam, u, v = _degenerate_case()
    shifted_factorization_both(*blocks, f, rf, lam, 0.0, u, v)


def _degenerate_message(exc):
    # the number the message prints, computed as shifted_factorization_both does
    _, _, rf, lam, u, v = _degenerate_case()
    spec = ShiftSpec(lam, 0j, u, v)
    eye = np.eye(4, dtype=complex)
    resolvent_g = np.linalg.solve(eye - spec.mu * rf.gminus, rf.gminus @ spec.vector)
    cond_val = (spec.lam - spec.mu) * (spec.dual.conj() @ resolvent_g)
    assert exc.value == abs(cond_val - 1.0)
    return f"(lam-mu) v* (I - mu G-)^-1 G- u = {cond_val:.6e} is too close to 1"


def _both_residual(mp):
    # a perturbed G+ fails the + side's factorization residual
    blocks, f = _canonical()
    rf = reversed_factorization(*blocks, f)
    lam, u = _inside_eigenpair(f)
    off = replace(f, gplus=f.gplus + 1e-6 * np.ones_like(f.gplus))
    shifted_factorization_both(*blocks, off, rf, lam, 0.0, u)


def _poly_radius(mp):
    poly_factorization(fx.p3(), 2 * np.eye(5))


def _poly_residual(mp):
    poly_factorization(fx.p3(), 0.5 * np.eye(5))


def _eigen_gap(mp):
    solve_unilateral(MatrixPoly([[[-1.0]], [[0.0]], [[1.0]]]), method="eigen")  # roots +-1


def _eigen_distinct(mp):
    solve_unilateral(MatrixPoly([-0.5 * np.eye(2), np.eye(2)]), method="eigen")


def _eigen_rcond(mp):
    jordan = np.array([[0.5, 1.0], [0.0, 0.5 + 1e-10]])  # nearly parallel eigenvectors
    solve_unilateral(MatrixPoly([-jordan, np.eye(2)]), method="eigen")


def _nan_residual(mp, fail_on):
    p, e = fx.p3(), np.ones(5)

    def residual(q, g):  # the shifted equation is not p
        return math.nan if q is p else core.equation_residual(q, g)

    mp.setattr(equations, "equation_residual", residual)
    if fail_on == "original":
        solve_unilateral(p)
    else:
        shift_accelerated_solve(p, 1.0, e, e / 5)


def _eigen_values(p):
    return [complex(q.value) for q in sorted(polyeig(p).pairs, key=lambda q: abs(q.value))]


P1_SCALE = sum(np.linalg.norm(c) for c in fx.p1().coeffs)


# name, trigger, error class, tol, op, expected message (a string, or a function of the error)
GATES = [
    ("det_ratio_oracle.rank", _oracle_rank, DegeneratePolynomial, RANK_TOL, ">",
     "det a(z) vanishes at every sample point"),
    ("polyeig.rank", _polyeig_rank, DegeneratePolynomial, RANK_TOL, ">",
     "det A(z) vanishes at all probe points"),
    ("invariant_pair.distinct", _pair_distinct, DistinctnessViolated, 1e-12, ">",
     "eigenvalues (0.5+0j) and (0.5+0j) coincide"),
    ("invariant_pair.independent", _pair_independent, DependentEigenvectors, 1e-8, ">=",
     lambda e: f"smallest singular value of U is {e.value:.2e}"),
    ("invariant_pair.residual", _pair_residual, NotInvariant, EIGENPAIR_TOL, "<=",
     lambda e: f"invariant-pair residual {e.value:.2e} exceeds 1e-8"),
    ("ShiftSpec.dual", _spec_dual, DegenerateShift, 1e-14, ">",
     "dual vector is orthogonal to the shift vector"),
    ("MultiShiftSpec.dual", _multispec_dual, DimensionMismatch, RESIDUAL_TOL, "<=",
     "||V* U - I||_F = 1.41e+00 exceeds 1e-10"),
    ("right_shift_pencil.eigenpair", _pencil_eigenpair, NotAnEigenpair, EIGENPAIR_TOL, "<=",
     lambda e: f"||A u - lam u|| residual {e.value:.2e} exceeds 1e-08"),
    ("multishift_pencil.invariant", _pencil_invariant, NotInvariant, EIGENPAIR_TOL, "<=",
     lambda e: f"||A U - U Lambda|| residual {e.value:.2e} exceeds 1e-08"),
    ("multishift.rank", _multishift_rank, SingularLambda, 1e-14, ">",
     "Lambda is singular; negative powers cannot be shifted"),
    ("multishift.invariant", _multishift_invariant, NotInvariant, EIGENPAIR_TOL, "<=",
     lambda e: f"invariant-pair residual {e.value:.2e} exceeds 1e-08"),
    ("shift.eigenpair", _shift_eigenpair, NotAnEigenpair, EIGENPAIR_TOL, "<=",
     lambda e: f"right eigenpair residual {e.value:.2e} exceeds 1e-08"),
    ("shift.kernel", _shift_kernel, NotInKernel, EIGENPAIR_TOL, "<=",
     lambda e: f"||A_d u|| residual {e.value:.2e} exceeds 1e-08"),
    ("shift.finite", _shift_finite, ShiftOverflow, 0, "<=",
     lambda e: f"{e.value} shifted coefficient entries are beyond double range"),
    ("palindromic_shift.input", _palindromic_input, NotPalindromic, 1e-12, "<=",
     lambda e: _relative(e, r"\|\|A_i - A_\(d-i\)\*\|\| deviation (\S+) exceeds 1e-12\*scale",
                         P1_SCALE)),
    ("palindromic_shift.eigenpair", _palindromic_eigenpair, NotAnEigenpair, EIGENPAIR_TOL, "<=",
     lambda e: f"right eigenpair residual {e.value:.2e} exceeds 1e-08"),
    ("palindromic_shift.output", _palindromic_output, NotAnEigenpair, 1e-6, "<=",
     "palindromic shift lost structure (deviation nan); eigenpair too inaccurate"),
    ("cr_quadratic.stop", _cr_stop, NoConvergence, _cr_stop_tol(), "<=",
     "cyclic reduction did not converge in 1 iterations "
     "(eigenvalues on the unit circle without a gap?)"),
    ("cr_quadratic.finite", _cr_finite, NoConvergence, math.inf, "<",
     "cyclic reduction blocks are not finite at step 0 (||B_-1||: nan, ||B_1||: 5.00e-01)"),
    ("cr_quadratic.residual", _cr_residual, NoConvergence, RESIDUAL_TOL, "<=",
     lambda e: _larger_of_two(e, r"cyclic reduction limit fails its residual checks "
                                 r"\(factorization residual (\S+), R\+ residual (\S+)\)")),
    ("cr_quadratic.radius", _cr_radius, NoConvergence, 1.0 - RADIUS_MARGIN, "<",
     lambda e: _larger_of_two(e, r"computed factors are not contractive \(rho\(G\+\)=(\S+), "
                                 r"rho\(R\+\)=(\S+)\); no canonical factorization")),
    ("reversed_factorization.rcond", _reversed_rcond, SingularH0, 1e-12, ">=",
     "reciprocal condition of H_0 is nan"),
    ("reversed_factorization.residual", _reversed_residual, SingularH0, RESIDUAL_TOL, "<=",
     lambda e: _larger_of_two(e, r"reversed factorization fails its residual checks "
                                 r"\(factorization residual (\S+), R- residual (\S+)\)")),
    ("shifted_factors.product", _shifted_product, NoConvergence, RESIDUAL_TOL, "<=",
     lambda e: f"updated factors disagree with the shifted function: {e.value:.2e}"),
    ("shifted_factors.l_roots", _l_roots, NoConvergence, 1.0 + RADIUS_MARGIN, ">",
     "det L~ has a root of modulus 0.500000 inside the closed unit disk"),
    ("shifted_factorization_both.degenerate", _both_degenerate, DegenerateShift, 1e-10, ">=",
     _degenerate_message),
    ("shifted_factorization_both.residual", _both_residual, NoConvergence, RESIDUAL_TOL, "<=",
     lambda e: f"shifted factorization residual {e.value:.2e} exceeds 1e-10"),
    ("poly_factorization.radius", _poly_radius, NotASolvent, 1.0 - RADIUS_MARGIN, "<",
     "rho(g) = 2.00000000 is not below one"),
    ("poly_factorization.residual", _poly_residual, NotASolvent, RESIDUAL_TOL, "<=",
     lambda e: f"relative ||sum A_i g^i|| = {e.value:.2e} exceeds 1e-10"),
    ("solve_eigen.gap", _eigen_gap, SplittingFailure, BOUNDARY_TOL, ">",
     "no circle separates moduli 1.000000 and 1.000000"),
    ("solve_eigen.distinct", _eigen_distinct, IllConditionedEigenbasis, 1e-12, ">",
     lambda e: "selected eigenvalues {} and {} coincide".format(
         *_eigen_values(MatrixPoly([-0.5 * np.eye(2), np.eye(2)])))),
    ("solve_eigen.rcond", _eigen_rcond, IllConditionedEigenbasis, 1e-8, ">=",
     lambda e: f"reciprocal condition of the eigenvector basis is {e.value:.2e}"),
    ("solve_unilateral.residual", lambda mp: _nan_residual(mp, "original"), NoConvergence,
     RESIDUAL_TOL, "<=", "solvent residual nan exceeds 1e-10"),
    ("shift_accelerated_solve.recovered", lambda mp: _nan_residual(mp, "recovered"), NoConvergence,
     1e-8, "<=", "recovered solvent fails the original equation: residual nan"),
]


@pytest.mark.parametrize("name, trigger, error, tol, op, message", GATES, ids=[g[0] for g in GATES])
def test_gate_error_carries_its_fields(monkeypatch, name, trigger, error, tol, op, message):
    with pytest.raises(MpshiftError) as caught:
        trigger(monkeypatch)
    exc = caught.value
    assert type(exc) is error
    assert (exc.name, exc.tol) == (name, tol)
    assert exc.step == (0 if name == "cr_quadratic.finite" else None)
    assert not core._OPS[op](exc.value, tol)  # the value fails the gate, NaN included
    assert str(exc) == (message(exc) if callable(message) else message)


GATE_NAME = r"[A-Za-z_]\w*\.\w+"


def _gate_names_in_src():
    src = Path(mpshift.__file__).parent
    names = set()
    for module in ("core", "spectra", "shifts", "factorizations", "equations"):
        names |= set(re.findall(f'"({GATE_NAME})"', (src / f"{module}.py").read_text()))
    return names


def test_every_gate_is_in_the_table():
    assert _gate_names_in_src() == {g[0] for g in GATES}


def test_readme_gate_table_names_every_gate():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| name | error | tolerance |", 1)[1].split("\n\n", 1)[0]
    names = set()
    for row in table.splitlines()[2:]:  # after the header's rule
        names |= set(re.findall(f"`({GATE_NAME})`", row.split("|")[1]))
    assert names == _gate_names_in_src()


def test_only_an_iteration_sets_step():
    # the non-finite CR blocks carry their step; a tolerance gate leaves it None
    with pytest.raises(NoConvergence) as caught:
        _cr_finite(None)
    assert caught.value.step == 0 and caught.value.name == "cr_quadratic.finite"
    with pytest.raises(NoConvergence) as caught:
        _cr_radius(None)
    assert caught.value.step is None


def test_an_error_built_by_hand_has_empty_fields():
    exc = NoConvergence("message")
    assert (str(exc), exc.name, exc.value, exc.tol, exc.step) == ("message", None, None, None, None)


@pytest.mark.parametrize("kwargs, name", [({"maxit": 1}, "cr_quadratic.stop"),
                                          ({"tol": 1e-2}, "cr_quadratic.residual")])
def test_solve_passes_the_cr_gate_fields_on(kwargs, name):
    # solve_unilateral reports CR's step limit and residual gate as
    # SplittingFailure, with the fields of the gate that failed
    rq = reblock(fx.p3())
    with pytest.raises(NoConvergence) as cr:
        cr_quadratic(rq.bm1, rq.b0, rq.b1, strict_radius=False, **kwargs)
    with pytest.raises(SplittingFailure) as solve:
        solve_unilateral(fx.p3(), **kwargs)
    got, want = solve.value, cr.value
    assert (got.name, got.tol, got.step, str(got)) == (name, want.tol, None, str(want))
    assert got.value == want.value and not got.value <= got.tol
