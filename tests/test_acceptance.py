"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import math

import numpy as np

from mpshift import (
    LaurentPoly,
    MatrixPoly,
    MultiShiftSpec,
    ShiftSpec,
    cr_quadratic,
    det_ratio_oracle,
    double_shift_laurent,
    equation_residual,
    evaluate,
    inverse_coefficients,
    left_shift_laurent,
    left_shift_poly,
    multishift_laurent,
    multishift_pencil,
    multishift_poly,
    palindromic_shift,
    polyeig,
    read_poly,
    refine_pair,
    reversed_factorization,
    right_shift_laurent,
    right_shift_pencil,
    right_shift_poly,
    shift_accelerated_solve,
    shift_from_infinity,
    shift_to_infinity,
    shifted_factorization_both,
    solve_unilateral,
    unit_vector,
)
from mpshift.cli import main
from mpshift.fixtures import p1, p2, p3

from conftest import (
    crandn,
    match_moduli,
    palindromic_quad,
    plant_kernel_lead,
    plant_left,
    plant_right,
    plant_right_pairs,
    qbd_quadratic,
    rand_laurent,
    rand_poly,
)

N_SEEDED = 20
ORACLE_TOL = 1e-8
ORACLE_SAMPLES = 16


def report(num, text):
    print(f"[criterion {num}] PASS: {text}")


def test_criterion_1_p1_shift_regression(tmp_path, capsys):
    src = tmp_path / "p1.mp.json"
    dst = tmp_path / "p1s.mp.json"
    assert main(["fixture", "p1", "-o", str(src)]) == 0
    assert (
        main(
            ["shift", str(src), "--lambda", "1", "--mu", "0",
             "--u", "1,0", "--v", "1,0", "-o", str(dst)]
        )
        == 0
    )
    got = read_poly(dst)
    expected = [
        -np.array([[0.0, 1.0], [0.0, 1.0]]),
        np.array([[1.0, 3.0], [0.0, 4.0]]),
        -np.array([[3.0, 0.0], [1.0, 2.0]]),
    ]
    for a, b in zip(got.coeffs, expected):
        assert np.array_equal(a, b)  # integer-exact
    vals = polyeig(got).values()
    err = match_moduli(vals, [0.0, 1 / 3, 1 / 2, 1.0])
    assert err <= 1e-9
    capsys.readouterr()
    report(1, f"CLI shift reproduces the printed matrices exactly; eigenvalue error {err:.2e} <= 1e-9")


def test_criterion_2_p1_conditioning_demonstration():
    vals = sorted(polyeig(p1()).values(), key=lambda z: abs(z - 1.0))
    double_err = max(abs(vals[0] - 1.0), abs(vals[1] - 1.0))
    assert 1e-10 <= double_err <= 1e-5

    shifted = right_shift_poly(p1(), ShiftSpec(1.0, 0.0, [1, 0], [1, 0]))
    err = match_moduli(polyeig(shifted).values(), [0.0, 1 / 3, 1 / 2, 1.0])
    assert err <= 1e-11
    report(
        2,
        f"double-root error {double_err:.2e} in [1e-10, 1e-5]; "
        f"shifted spectrum error {err:.2e} <= 1e-11",
    )


def test_criterion_3_p2_infinity_deflation(tmp_path, capsys):
    src = tmp_path / "p2.mp.json"
    mid = tmp_path / "t1.mp.json"
    dst = tmp_path / "t2.mp.json"
    assert main(["fixture", "p2", "-o", str(src)]) == 0
    assert (
        main(["shift", str(src), "--from-inf", "--mu", "1", "--u", "1,0,0", "-o", str(mid)])
        == 0
    )
    assert (
        main(["shift", str(mid), "--from-inf", "--mu", "0.5", "--u", "1,0,0", "-o", str(dst)])
        == 0
    )
    step1 = read_poly(mid)
    assert np.array_equal(step1.coeffs[1], np.array([[-1.0, 1.0, 1.0]] * 3, dtype=complex))
    assert np.array_equal(step1.coeffs[0], p2().coeffs[0])
    assert np.array_equal(step1.coeffs[2], p2().coeffs[2])
    final = read_poly(dst)
    assert np.array_equal(
        final.coeffs[2],
        np.array([[2.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 0.0, 1.0]], dtype=complex),
    )
    assert np.array_equal(final.coeffs[1], np.array([[-3.0, 1.0, 1.0]] * 3, dtype=complex))
    assert np.array_equal(final.coeffs[0], p2().coeffs[0])
    expected = [0.5, 1.0, 1j, -1j, 1j * math.sqrt(3), -1j * math.sqrt(3)]
    err = match_moduli(polyeig(final).values(), expected)
    assert err <= 1e-7
    capsys.readouterr()
    report(3, f"both deflation steps integer-exact; final eigenvalue error {err:.2e} <= 1e-7")


def test_criterion_4_p3_iteration_counts():
    fixture = p3()
    plain = solve_unilateral(fixture)
    assert abs(plain.iterations - 12) <= 2
    fast = shift_accelerated_solve(fixture, 1.0, np.ones(5), np.ones(5) / 5, 0.0)
    assert abs(fast.iterations - 6) <= 2
    assert fast.iterations < plain.iterations
    resid = equation_residual(fixture, fast.g)
    assert resid <= 1e-8
    report(
        4,
        f"cyclic reduction {plain.iterations} iterations (12 +- 2); shifted "
        f"{fast.iterations} (6 +- 2); recovered-solvent residual {resid:.2e} <= 1e-8",
    )


def test_criterion_5_p3_ratios():
    fixture = p3()
    plain = solve_unilateral(fixture)
    assert abs(plain.sigma - 0.98758) <= 1e-4
    fast = shift_accelerated_solve(fixture, 1.0, np.ones(5), np.ones(5) / 5, 0.0)
    assert 0.20 <= fast.sigma <= 0.23
    outside = [abs(q.value) for q in polyeig(fixture).pairs if abs(q.value) > 1 + 1e-9]
    smallest_outside = min(outside)
    assert abs(smallest_outside - 1.01258) <= 1e-4
    report(
        5,
        f"sigma {plain.sigma:.5f} (0.98758 +- 1e-4); shifted sigma {fast.sigma:.5f} "
        f"in [0.20, 0.23]; smallest outside modulus {smallest_outside:.5f} (1.01258 +- 1e-4)",
    )


def _disk_point(rng, lo=0.15, hi=0.85):
    return complex((lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random()))


def _criterion6_variants():
    def right_poly(rng):
        lam, u = _disk_point(rng), unit_vector(crandn(rng, 3))
        p = plant_right(rand_poly(rng, 3, 3), lam, u)
        mu = complex(1.4 * rng.random() * np.exp(2j * np.pi * rng.random()))
        return p, right_shift_poly(p, ShiftSpec(lam, mu, u)), [lam], [mu], False

    def left_poly(rng):
        lam, v = _disk_point(rng), unit_vector(crandn(rng, 3))
        p = plant_left(rand_poly(rng, 3, 3), lam, v)
        mu = complex(1.2 * rng.random() * np.exp(2j * np.pi * rng.random()))
        return p, left_shift_poly(p, ShiftSpec(lam, mu, v, side="left")), [lam], [mu], False

    def right_laurent(rng):
        lam, u = _disk_point(rng, 0.3, 0.9), unit_vector(crandn(rng, 3))
        p = plant_right(rand_laurent(rng, 3, -1, 2), lam, u)
        mu = _disk_point(rng)
        return p, right_shift_laurent(p, ShiftSpec(lam, mu, u)), [lam], [mu], False

    def left_laurent(rng):
        lam, v = _disk_point(rng, 0.3, 0.9), unit_vector(crandn(rng, 3))
        p = plant_left(rand_laurent(rng, 3, -2, 1), lam, v)
        mu = _disk_point(rng)
        return p, left_shift_laurent(p, ShiftSpec(lam, mu, v, side="left")), [lam], [mu], False

    def double(rng):
        lam1, u = _disk_point(rng, 0.35, 0.8), unit_vector(crandn(rng, 3))
        p = plant_right(rand_laurent(rng, 3, -1, 1), lam1, u)
        quad = MatrixPoly([p.coeff(-1), p.coeff(0), p.coeff(1)])
        lam2 = next(
            q.value
            for q in polyeig(quad).finite()
            if abs(q.value - lam1) > 0.25 and abs(q.value) > 0.05
        )
        v = unit_vector(np.linalg.svd(evaluate(p, lam2))[0][:, -1])
        mu1, mu2 = _disk_point(rng), complex(1.6 * np.exp(2j * np.pi * rng.random()))
        out = double_shift_laurent(
            p, ShiftSpec(lam1, mu1, u), ShiftSpec(lam2, mu2, v, side="left")
        )
        return p, out, [lam1, lam2], [mu1, mu2], False

    def multi_m1(rng):
        lam, u = _disk_point(rng), unit_vector(crandn(rng, 3))
        p = plant_right(rand_poly(rng, 3, 2), lam, u)
        mu = _disk_point(rng)
        ms = MultiShiftSpec(u.reshape(-1, 1), [[lam]], [[mu]])
        return p, multishift_poly(p, ms), [lam], [mu], False

    def multi_m2(rng):
        lams = [_disk_point(rng), complex(1.3 * np.exp(2j * np.pi * rng.random()))]
        us = [unit_vector(crandn(rng, 4)) for _ in lams]
        p = plant_right_pairs(rand_poly(rng, 4, 3), list(zip(lams, us)))
        targets = [_disk_point(rng), _disk_point(rng)]
        ms = MultiShiftSpec(np.column_stack(us), np.diag(lams), np.diag(targets))
        return p, multishift_poly(p, ms), lams, targets, False

    def palindromic(rng):
        p = palindromic_quad(rng, 3)
        pair = next(
            q
            for q in sorted(polyeig(p).finite(), key=lambda q: abs(q.value))
            if abs(abs(q.value) - 1.0) > 0.05
        )
        pair = refine_pair(p, pair.value, pair.right)
        lam = complex(pair.value)
        mu = _disk_point(rng, 0.2, 0.8)
        out = palindromic_shift(p, lam, mu, pair.right)
        removed = [lam, 1.0 / lam.conjugate()]
        added = [mu, 1.0 / mu.conjugate()]
        return p, out, removed, added, True

    def to_inf(rng):
        lam, u = _disk_point(rng, 0.4, 0.95), unit_vector(crandn(rng, 3))
        p = plant_right(rand_poly(rng, 3, 3), lam, u)
        return p, shift_to_infinity(p, lam, u), [lam], [], True

    def from_inf(rng):
        u = unit_vector(crandn(rng, 3))
        p = plant_kernel_lead(rand_poly(rng, 3, 3), u)
        mu = _disk_point(rng, 0.4, 1.4)
        return p, shift_from_infinity(p, mu, u), [], [mu], True

    return {
        "right poly": right_poly,
        "left poly": left_poly,
        "right Laurent": right_laurent,
        "left Laurent": left_laurent,
        "double": double,
        "multishift m=1": multi_m1,
        "multishift m=2": multi_m2,
        "palindromic": palindromic,
        "to infinity": to_inf,
        "from infinity": from_inf,
    }


def test_criterion_6_det_ratio_suite():
    worst = {}
    for name, build in _criterion6_variants().items():
        errs = []
        for k in range(N_SEEDED):
            rng = np.random.default_rng(10_000 + 97 * k)
            p, shifted, removed, added, fit = build(rng)
            rep = det_ratio_oracle(
                p,
                shifted,
                removed=removed,
                added=added,
                samples=ORACLE_SAMPLES,
                seed=k,
                fit_constant=fit,
            )
            assert rep.passed, f"{name} seed {k}: max rel err {rep.max_rel_err:.2e}"
            errs.append(rep.max_rel_err)
        worst[name] = max(errs)
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    assert max(worst.values()) <= ORACLE_TOL
    report(6, f"20 instances x 10 variants, 16 samples each; worst errors: {summary}")


def test_criterion_7_factorization_update_equivalence():
    worst_g = worst_rev = 0.0
    for k in range(N_SEEDED):
        rng = np.random.default_rng(20_000 + 131 * k)
        am1, a0, a1 = qbd_quadratic(rng, 4)
        f = cr_quadratic(am1, a0, a1)
        rf = reversed_factorization(am1, a0, a1, f)
        vals, vecs = np.linalg.eig(f.gplus)
        i = int(np.argmax(np.abs(vals)))
        lam, u = complex(vals[i]), vecs[:, i]
        mu = complex(0.5 * rng.random() * lam)
        spec = ShiftSpec(lam, mu, u)
        # the non-degeneracy condition is asserted before running
        eye = np.eye(4)
        cond = (lam - mu) * (
            spec.dual.conj() @ np.linalg.solve(eye - mu * rf.gminus, rf.gminus @ spec.vector)
        )
        assert abs(cond - 1.0) >= 1e-10
        out_f, out_rf = shifted_factorization_both(am1, a0, a1, f, rf, lam, mu, u)

        shifted = right_shift_laurent(LaurentPoly(-1, (am1, a0, a1)), spec)
        f2 = cr_quadratic(shifted.coeff(-1), shifted.coeff(0), shifted.coeff(1))
        rf2 = reversed_factorization(shifted.coeff(-1), shifted.coeff(0), shifted.coeff(1), f2)
        dg = np.linalg.norm(out_f.gplus - f2.gplus)
        drev = max(
            np.linalg.norm(out_rf.gminus - rf2.gminus),
            np.linalg.norm(out_rf.rminus - rf2.rminus),
            np.linalg.norm(out_rf.kminus - rf2.kminus),
        )
        assert dg <= 1e-8 and drev <= 1e-8, f"seed {k}: dG={dg:.2e}, drev={drev:.2e}"
        worst_g, worst_rev = max(worst_g, dg), max(worst_rev, drev)
    report(
        7,
        f"20 instances: closed-form updates vs fresh cyclic reduction agree "
        f"(G+ {worst_g:.1e}, reversed {worst_rev:.1e}, tol 1e-8)",
    )


def test_criterion_8_inverse_coefficients():
    # scalar closed form
    f = cr_quadratic(np.array([[-0.25]]), np.array([[1.0]]), np.array([[-0.25]]))
    h0 = inverse_coefficients(f, 0)[0][0, 0]
    assert abs(h0 - 2.0 / math.sqrt(3.0)) <= 1e-12

    worst = 0.0
    for k in range(N_SEEDED):
        rng = np.random.default_rng(30_000 + 17 * k)
        am1, a0, a1 = qbd_quadratic(rng, 3)
        f = cr_quadratic(am1, a0, a1)
        rho = max(f.rho_g, f.rho_r)
        m = max(4, math.ceil(math.log(1e-10) / math.log(rho)))
        hs = inverse_coefficients(f, m)
        for j in range(8):
            z = np.exp(2j * np.pi * j / 8)
            approx = sum(z ** (i - m) * hs[i] for i in range(2 * m + 1))
            exact = np.linalg.inv(am1 / z + a0 + z * a1)
            err = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
            assert err <= 1e-8, f"seed {k}, point {j}: {err:.2e}"
            worst = max(worst, err)
    report(
        8,
        f"H_0 scalar fixture = 2/sqrt(3) ({h0:.12f}); pointwise inverse error "
        f"<= {worst:.1e} over 20 instances x 8 circle points (tol 1e-8)",
    )


def test_criterion_9_structural_invariants():
    rng = np.random.default_rng(911)
    # identity at mu = lambda, exact, across ops
    lam, u = 0.45 + 0.3j, unit_vector(crandn(rng, 3))
    pp = plant_right(rand_poly(rng, 3, 3), lam, u)
    assert right_shift_poly(pp, ShiftSpec(lam, lam, u)) is pp
    pl = plant_left(rand_poly(rng, 3, 2), lam, u)
    assert left_shift_poly(pl, ShiftSpec(lam, lam, u, side="left")) is pl
    ql = plant_right(rand_laurent(rng, 3, -1, 1), lam, u)
    assert right_shift_laurent(ql, ShiftSpec(lam, lam, u)) is ql
    a = np.diag([1.0, 2.0])
    assert np.array_equal(
        right_shift_pencil(a, ShiftSpec(1.0, 1.0, [1, 0])), a.astype(complex)
    )
    pal = palindromic_quad(rng, 3)
    pair = next(
        q for q in sorted(polyeig(pal).finite(), key=lambda q: abs(q.value))
        if abs(abs(q.value) - 1) > 0.05
    )
    assert palindromic_shift(pal, pair.value, pair.value, pair.right) is pal

    # degree / support preservation and exact leading coefficient
    mu = -0.2 + 0.5j
    out = right_shift_poly(pp, ShiftSpec(lam, mu, u))
    assert out.d == pp.d and np.array_equal(out.coeffs[-1], pp.coeffs[-1])
    out_l = right_shift_laurent(ql, ShiftSpec(lam, mu, u))
    assert (out_l.lo, out_l.hi) == (ql.lo, ql.hi)

    # palindromic preservation (exact after symmetrization)
    pal_out = palindromic_shift(pal, pair.value, 0.3, refine_pair(pal, pair.value, pair.right).right)
    for i in range(3):
        assert np.array_equal(pal_out.coeffs[i], pal_out.coeffs[2 - i].conj().T)

    # double shift: order independence to 1e-13
    lam1, u1 = 0.5 + 0.2j, unit_vector(crandn(rng, 3))
    dl = plant_right(rand_laurent(rng, 3, -1, 1), lam1, u1)
    quad = MatrixPoly([dl.coeff(-1), dl.coeff(0), dl.coeff(1)])
    lam2 = next(
        q.value for q in polyeig(quad).finite()
        if abs(q.value - lam1) > 0.25 and abs(q.value) > 0.05
    )
    v2 = unit_vector(np.linalg.svd(evaluate(dl, lam2))[0][:, -1])
    rs, ls = ShiftSpec(lam1, 0.1, u1), ShiftSpec(lam2, 1.7, v2, side="left")
    rl = double_shift_laurent(dl, rs, ls)
    lr = right_shift_laurent(left_shift_laurent(dl, ls), rs)
    scale = sum(np.linalg.norm(c) for c in dl.coeffs)
    order_gap = max(
        np.linalg.norm(a - b) for a, b in zip(rl.coeffs, lr.coeffs)
    )
    assert order_gap <= 1e-13 * scale

    # m = 1 multishift equals the single shift exactly (pencil, poly, Laurent)
    vals, vecs = np.linalg.eig(a := crandn(rng, 4, 4))
    w = vecs[:, 0]
    dual = ShiftSpec(vals[0], 0.2, w).dual
    ms = MultiShiftSpec(w.reshape(-1, 1), [[vals[0]]], [[0.2]], dual.reshape(-1, 1))
    assert np.array_equal(
        multishift_pencil(a, ms), right_shift_pencil(a, ShiftSpec(vals[0], 0.2, w, dual))
    )
    spec1 = ShiftSpec(lam, mu, u, ShiftSpec(lam, mu, u).dual)
    ms1 = MultiShiftSpec(
        u.reshape(-1, 1), [[lam]], [[mu]], spec1.dual.reshape(-1, 1)
    )
    a_multi = multishift_poly(pp, ms1)
    a_single = right_shift_poly(pp, spec1)
    assert all(np.array_equal(x, y) for x, y in zip(a_multi.coeffs, a_single.coeffs))
    l_multi = multishift_laurent(ql, ms1)
    l_single = right_shift_laurent(ql, spec1)
    assert all(np.array_equal(x, y) for x, y in zip(l_multi.coeffs, l_single.coeffs))

    report(
        9,
        f"identity shifts exact; degree/support preserved; palindromic structure exact; "
        f"composition order gap {order_gap / scale:.1e} <= 1e-13; m=1 multishift bitwise equal",
    )
