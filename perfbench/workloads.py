"""Seeded inputs and the op cycle of each workload.

``build(name, seed, workdir, cli)`` writes the inputs as ``.mp.json`` files
under ``workdir`` and returns the ops of one round-robin cycle.  ``cli`` runs
a command once during set-up (the second ``--from-inf`` step and the
``check`` command consume files that earlier README steps produce).  The same
seed gives the same files and the same cycle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

import checks
from mpshift import fixtures
from mpshift.core import LaurentPoly, MatrixPoly, write_poly

# Near-critical QBD: B_-1 + B_0 + B_1 is row stochastic with down/up
# probabilities LEVEL +- DRIFT/2, so 1 is an eigenvalue on the unit circle
# and the next one sits just outside it.  The factor op runs on a twin whose
# blocks are scaled by SUB, which moves every eigenvalue off the circle.
QBD_LEVEL = 0.3
QBD_DRIFT = 0.0005
QBD_SUB = 0.99

# Sizes per workload; the smoke sizes keep the op kinds and the code paths
# (poly stays at n >= 16, where the degeneracy gate rejects every input).
SIZES = {
    "full": {"qbd_n": 50, "qbd_k": 4, "poly_n": 64, "poly_d": 3, "poly_k": 2},
    "smoke": {"qbd_n": 8, "qbd_k": 2, "poly_n": 16, "poly_d": 3, "poly_k": 1},
}


@dataclass
class Op:
    kind: str  # eig | shift | solve | solve_shift | factor | check
    label: str
    argv: list
    check: object  # callable(payload) raising checks.CheckFailed


def cplx(z):
    z = complex(z)
    return f"{z.real!r}{'+' if math.copysign(1.0, z.imag) > 0 else '-'}{abs(z.imag)!r}i"


def vec(v):
    return ",".join(cplx(x) for x in v)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def on_circle(rng, lo, hi):
    return rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random())


def null_vectors(m):
    """Unit right and left null vectors of a (numerically) singular matrix."""
    lu, _, vh = np.linalg.svd(m)
    return vh[-1].conj(), lu[:, -1]


def plant(coeffs, lo, lam, u, side):
    """Correct the z^0 coefficient so that (lam, u) is an exact right (or left) eigenpair."""
    a = checks.value(coeffs, lo, lam)
    corr = np.outer(a @ u, u.conj()) if side == "right" else np.outer(u, u.conj() @ a)
    out = [c.copy() for c in coeffs]
    out[-lo] -= corr / np.vdot(u, u)
    return out


def qbd_blocks(rng, n):
    rows = (QBD_LEVEL + QBD_DRIFT / 2, 1 - 2 * QBD_LEVEL, QBD_LEVEL - QBD_DRIFT / 2)
    blocks = []
    for r in rows:
        b = rng.random((n, n))
        blocks.append(b * (r / b.sum(axis=1))[:, None])
    return blocks


class _Files:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, coeffs, lo=0):
        self.count += 1
        path = str(self.workdir / f"in{self.count}.mp.json")
        write_poly(MatrixPoly(coeffs) if lo == 0 else LaurentPoly(lo, coeffs), path)
        return path

    def out(self):
        self.count += 1
        return str(self.workdir / f"out{self.count}.mp.json")


def _eig(files, label, coeffs):
    path = files.write(coeffs)
    ref = checks.pencil_eigvals(coeffs)
    return Op("eig", label, ["eig", path, "--format", "json"], partial(checks.check_eig, reference=ref))


def _shift(files, label, path, flags, **expect):
    out = files.out()
    argv = ["shift", path, *flags, "-o", out, "--format", "json"]
    return Op("shift", label, argv, partial(checks.check_shift, path=out, **expect))


def _solve_ops(files, label, coeffs, shift_flags):
    path = files.write(coeffs)
    check = partial(checks.check_solve, coeffs=coeffs)
    return [
        Op("solve", label, ["solve", path, "--format", "json"], check),
        Op("solve_shift", label, ["solve", path, *shift_flags, "--format", "json"], check),
    ]


def _factor(files, label, am1, a0, a1):
    path = files.write([am1, a0, a1], lo=-1)
    check = partial(checks.check_factor, am1=am1, a0=a0, a1=a1)
    return Op("factor", label, ["factor", path, "--quad", "--both", "--format", "json"], check)


def _qbd_ops(files, rng, n, label):
    bm, b0, bp = qbd_blocks(rng, n)
    eye = np.eye(n)
    e = np.ones(n)
    ops = _solve_ops(
        files, label, [bm, b0 - eye, bp],
        ["--shift", "1,0", f"--u={vec(e)}", f"--v={vec(e / n)}"],
    )
    ops.append(_factor(files, label, QBD_SUB * bm, QBD_SUB * b0 - eye, QBD_SUB * bp))
    return ops


def _planted_shift(files, rng, label, n, degree, lo, side, lam, mu):
    """A single shift of a random (Laurent) polynomial with an exactly planted eigenpair."""
    u, dual = crandn(rng, n), crandn(rng, n)
    coeffs = plant([crandn(rng, n, n) for _ in range(degree + 1)], lo, lam, u, side)
    flags = [f"--lambda={cplx(lam)}", f"--mu={cplx(mu)}", "--side", side]
    flags += [f"--u={vec(u)}", f"--v={vec(dual)}"] if side == "right" else [f"--v={vec(u)}", f"--u={vec(dual)}"]
    return _shift(files, label, files.write(coeffs, lo=lo), flags, **{side: (mu, u)})


def paper(rng, files, cli, sizes):
    """README flows on p1, p2, p3, a small QBD, and seeded n <= 8 shifts in every mode."""
    fx = {name: [np.array(c) for c in fixtures.fixture(name).coeffs] for name in ("p1", "p2", "p3")}
    ops = [_eig(files, name, fx[name]) for name in fx]
    p1, p2 = files.write(fx["p1"]), files.write(fx["p2"])

    e1 = np.array([1.0, 0.0])
    ops.append(_shift(files, "p1 right", p1, ["--lambda=1", "--mu=0", "--u=1,0", "--v=1,0"],
                      right=(0.0, e1)))
    _, v = null_vectors(checks.value(fx["p1"], 0, 1.0))
    ops.append(_shift(files, "p1 left", p1, ["--lambda=1", "--mu=0", "--side", "left", f"--v={vec(v)}"],
                      left=(0.0, v)))
    shifted = files.out()
    cli(["shift", p1, "--lambda=1", "--mu=0", "--u=1,0", "--v=1,0", "-o", shifted])
    ops.append(Op("check", "p1", ["check", p1, shifted, "--removed=1", "--added=0", "--format", "json"],
                  checks.check_oracle))

    e1 = np.array([1.0, 0.0, 0.0])
    ops.append(_shift(files, "p2 from-inf", p2, ["--from-inf", "--mu=1", "--u=1,0,0"], right=(1.0, e1)))
    t1 = files.out()
    cli(["shift", p2, "--from-inf", "--mu=1", "--u=1,0,0", "-o", t1])
    ops.append(_shift(files, "p2 from-inf 2", t1, ["--from-inf", "--mu=0.5", "--u=1,0,0"], right=(0.5, e1)))

    ops += _solve_ops(files, "p3", fx["p3"],
                      ["--shift", "1,0", "--u=1,1,1,1,1", "--v=0.2,0.2,0.2,0.2,0.2"])
    bm, b0, bp = qbd_blocks(rng, 6)
    ops.append(_factor(files, "qbd n=6", 0.9 * bm, 0.9 * b0 - np.eye(6), 0.9 * bp))

    n = 6
    lam, mu = on_circle(rng, 0.3, 0.9), on_circle(rng, 0.05, 0.25)
    for side in ("right", "left"):
        ops.append(_planted_shift(files, rng, f"laurent {side}", n, 2, -1, side, lam, mu))

    coeffs = [crandn(rng, n, n) for _ in range(3)]
    vals = sorted(checks.pencil_eigvals(coeffs), key=abs)
    l1, l2 = vals[0], vals[-1]
    m1, m2 = 0.5 * l1, 2.0 * l2
    u, _ = null_vectors(checks.value(coeffs, -1, l1))
    _, v = null_vectors(checks.value(coeffs, -1, l2))
    flags = [f"--lambda={cplx(l1)}", f"--mu={cplx(m1)}", f"--lambda2={cplx(l2)}", f"--mu2={cplx(m2)}",
             f"--u={vec(u)}", f"--v={vec(v)}", "--double"]
    ops.append(_shift(files, "laurent double", files.write(coeffs, lo=-1), flags,
                      right=(m1, u), left=(m2, v)))

    coeffs = [crandn(rng, n, n) for _ in range(3)]
    vals = sorted(checks.pencil_eigvals(coeffs), key=abs)
    packet, targets = vals[:2], [0.1, -0.1]
    spec = files.workdir / "packet.json"
    spec.write_text(json.dumps({"lambdas": [cplx(x) for x in packet], "targets": [cplx(x) for x in targets]}))
    ops.append(_shift(files, "poly multi", files.write(coeffs), ["--multi", str(spec)],
                      singular_at=targets))

    coeffs = [crandn(rng, n, n) for _ in range(3)]
    lam = sorted(checks.pencil_eigvals(coeffs), key=abs)[0]
    u, _ = null_vectors(checks.value(coeffs, 0, lam))
    ops.append(_shift(files, "poly to-inf", files.write(coeffs), ["--to-inf", f"--lambda={cplx(lam)}", f"--u={vec(u)}"],
                      lead_kernel=u))

    n = 4
    a0, r = crandn(rng, n, n), crandn(rng, n, n)
    coeffs = [a0, r + r.conj().T, a0.conj().T]
    lam = min((x for x in checks.pencil_eigvals(coeffs) if abs(abs(x) - 1) > 0.05), key=abs)
    u, _ = null_vectors(checks.value(coeffs, 0, lam))
    ops.append(_shift(files, "palindromic", files.write(coeffs),
                      ["--palindromic", f"--lambda={cplx(lam)}", "--mu=0.25", f"--u={vec(u)}"],
                      singular_at=[0.25, 4.0], palindromic=True))
    return ops


def qbd(rng, files, cli, sizes):
    """Near-critical QBD solves, shifted solves, and factorizations of subcritical twins."""
    n = sizes["qbd_n"]
    ops = []
    for i in range(sizes["qbd_k"]):
        ops += _qbd_ops(files, rng, n, f"qbd{i} n={n}")
    return ops


def poly(rng, files, cli, sizes):
    """Random complex polynomials and Laurent polynomials with planted eigenpairs."""
    n, d = sizes["poly_n"], sizes["poly_d"]
    ops = []
    for i in range(sizes["poly_k"]):
        label = f"poly{i} n={n}"
        ops.append(_eig(files, label, [crandn(rng, n, n) for _ in range(d + 1)]))
        lam, mu = on_circle(rng, 0.3, 0.9), on_circle(rng, 0.05, 0.25)
        for lo, side in ((0, "right"), (0, "left"), (-1, "right")):
            kind = "laurent" if lo else "poly"
            ops.append(_planted_shift(files, rng, f"{label} {kind} {side}", n, d, lo, side, lam, mu))
    return ops


BUILDERS = {"paper": paper, "qbd": qbd, "poly": poly}


def build(name, seed, workdir, cli, smoke=False):
    rng = np.random.default_rng(seed)
    return BUILDERS[name](rng, _Files(workdir), cli, SIZES["smoke" if smoke else "full"])
