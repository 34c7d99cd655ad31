"""End-to-end and per-layer benchmark of the ``mpshift`` command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads: ``paper``, ``qbd`` and ``poly`` (see perfbench/README.md).  The
ops run in process through ``mpshift.cli.main(argv)`` with stdout captured,
in a closed loop (one client, no think time, one process), round-robin over
instances and op kinds, and every output goes through the checks in
``checks.py``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every op once untraced and once traced and reports per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metrics it holds are the ones
``BENCHMARK.json`` lists.  ``--smoke`` shrinks the inputs to seconds-long
sizes.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KINDS = ("eig", "shift", "solve", "solve_shift", "factor")
TAIL_LADDER = (50, 90, 99, 99.9)  # tail = highest rung with >= 10 samples beyond it
SETUP_ROUNDS = 6  # the first before the timed phase, the rest spread through it


def percentile(samples, p):
    """Nearest-rank percentile of times where a failure (inf) sorts last; None on a failure."""
    ordered = sorted(samples)
    k = max(1, math.ceil(p / 100 * len(ordered)))
    value = ordered[k - 1]
    return None if math.isinf(value) else value


def tail_rung(n):
    for p in reversed(TAIL_LADDER):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return None


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def ref_kernel_ms():
    """Median time of a fixed 128x128 matmul loop: a host-speed record, never a rescaler."""
    a = np.random.default_rng(0).random((128, 128))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20):
            b = a @ a
        times.append(time.perf_counter() - t0)
    del b
    return 1e3 * statistics.median(times)


def environment():
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    return {
        "blas_threads": blas_threads(),
        "blas_env": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def source_lines():
    counts = {f"loc.{p.stem}": sum(1 for _ in p.open(encoding="utf-8"))
              for p in sorted((SRC / "mpshift").glob("*.py"))}
    counts["loc.total"] = sum(counts.values())
    return counts


class Result:
    __slots__ = ("seconds", "reason", "payload", "warnings", "check_seconds")


class Runner:
    """Runs ops through ``cli.main`` and checks their output."""

    def __init__(self, cli):
        self.cli = cli

    def setup_command(self, argv):
        """One set-up command whose output a later op consumes; it must succeed."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited {code}: {err.getvalue().strip()}")

    def attempt(self, op, tracer=None):
        """Run one op; with a tracer, its wrappers are in place for the call only."""
        res = Result()
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.op += 1
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(op.argv)
                except Exception as exc:  # an escaping exception is a failed attempt
                    error = f"{type(exc).__name__}: {exc}"
                finally:
                    res.seconds = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.uninstall()
        res.warnings = [w.category.__name__ for w in caught]
        t1 = time.perf_counter()
        res.payload, res.reason = None, None
        if error is not None:
            res.reason = f"exception {error}"
        elif code != 0:
            lines = err.getvalue().strip().splitlines()
            res.reason = f"exit {code}: {lines[-1] if lines else ''}"
        else:
            try:
                res.payload = json.loads(out.getvalue())
                op.check(res.payload)
            except (checks.CheckFailed, ValueError, KeyError, TypeError) as exc:
                res.reason = f"check: {type(exc).__name__}: {exc}"
                res.payload = None
        res.check_seconds = time.perf_counter() - t1
        return res


class Tally:
    """Per-kind samples and counters of one timed phase."""

    def __init__(self):
        self.times = {}  # kind -> seconds, inf for a failed attempt
        self.best = {}  # kind -> {op index -> fastest verified seconds, inf if none}
        self.iterations = {"solve": [], "solve_shift": []}
        self.attempted = self.failed = 0
        self.check_seconds = 0.0
        self.op_seconds = 0.0
        self.reasons = Counter()
        self.warnings = Counter()
        self.sigma_missing = 0

    def add(self, index, op, res):
        self.attempted += 1
        self.check_seconds += res.check_seconds
        self.op_seconds += res.seconds
        self.warnings.update(res.warnings)
        ok = res.reason is None
        seconds = res.seconds if ok else math.inf
        self.times.setdefault(op.kind, []).append(seconds)
        best = self.best.setdefault(op.kind, {})
        best[index] = min(best.get(index, math.inf), seconds)
        if not ok:
            self.failed += 1
            self.reasons[f"{op.kind} {op.label}: {res.reason[:160]}"] += 1
        elif op.kind in self.iterations:
            self.iterations[op.kind].append(res.payload["iterations"])
            self.sigma_missing += res.payload.get("sigma") is None

    def metrics(self, wall):
        out, info = {}, {}
        for kind in KINDS:
            samples = self.times.get(kind)
            if not samples:
                continue
            rung = tail_rung(len(samples))
            p50 = percentile(samples, 50)
            tail = percentile(samples, rung) if rung is not None else None
            out[f"{kind}_p50_ms"] = (None if p50 is None else 1e3 * p50, "ms")
            out[f"{kind}_tail_ms"] = (None if tail is None else 1e3 * tail, "ms")
            info[f"{kind}_tail_ms"] = f"p{rung} of {len(samples)} samples"
            best = statistics.mean(self.best[kind].values())
            out[f"{kind}_best_ms"] = (None if math.isinf(best) else 1e3 * best, "ms")
        verified = self.attempted - self.failed
        out["verified_ops_per_s"] = (verified / max(wall - self.check_seconds, 1e-9), "1/s")
        out["fail_frac"] = (self.failed / max(self.attempted, 1), "ratio")
        for kind, name in (("solve", "cr_iters_plain"), ("solve_shift", "cr_iters_shift")):
            if kind in self.times:
                its = self.iterations[kind]
                out[name] = (statistics.median(its) if its else None, "count")
        return out, info


def fresh_import_seconds():
    """Time to import mpshift afresh; the loaded modules are put back afterwards."""
    def ours():
        return [name for name in sys.modules if name == "mpshift" or name.startswith("mpshift.")]

    loaded = {name: sys.modules.pop(name) for name in ours()}
    t0 = time.perf_counter()
    importlib.import_module("mpshift.cli")
    seconds = time.perf_counter() - t0
    for name in ours():
        del sys.modules[name]
    sys.modules.update(loaded)
    return seconds


def timed_loop(runner, ops, seconds, setup_round, tracer=None):
    """Whole round-robin cycles until ``seconds`` have passed.

    With a tracer every op runs twice, untraced and traced, in an order that
    alternates each cycle so host drift does not favour either side.  Between
    cycles, ``setup_round(elapsed)`` may repeat the set-up; the time it takes
    is left out of the returned wall time.
    """
    plain, traced = Tally(), Tally()
    pairs = []
    cycle = 0
    paused = 0.0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for index, op in enumerate(ops):
            if tracer is None:
                plain.add(index, op, runner.attempt(op))
                continue
            pair = {}
            for with_trace in ((True, False) if cycle % 2 else (False, True)):
                res = runner.attempt(op, tracer if with_trace else None)
                (traced if with_trace else plain).add(index, op, res)
                pair[with_trace] = res.seconds
            pairs.append(pair[True] - pair[False])
        cycle += 1
        t1 = time.perf_counter()
        setup_round(t1 - t0)
        paused += time.perf_counter() - t1
    return time.perf_counter() - t0 - paused, plain, traced, pairs


def warm_up(runner, ops):
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            runner.attempt(op)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "qbd", "poly"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a seconds-long check")
    return parser.parse_args(argv)


def listed_metrics(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[key]]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mpshift" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no mpshift source tree (src/mpshift) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    listed = listed_metrics("per_layer" if args.trace else "end_to_end")

    t_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import mpshift
    import mpshift.cli

    first_import_s = time.perf_counter() - t_start
    if Path(mpshift.__file__).resolve().parent != SRC / "mpshift":
        print(f"error: imported mpshift from {mpshift.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    runner = Runner(mpshift.cli)
    workroot = ROOT / ".perfbench_work"
    workdir = workroot / f"{args.workload}-{os.getpid()}"
    rounds = []  # seconds of each set-up: mpshift import, inputs, file writes, warm-up

    def setup_round(elapsed=None):
        """One set-up; after the first, only at the next slot of the timed phase."""
        if elapsed is not None and (len(rounds) >= SETUP_ROUNDS
                                    or elapsed < len(rounds) * args.seconds / SETUP_ROUNDS):
            return None
        import_s = fresh_import_seconds() if rounds else first_import_s
        t0 = time.perf_counter()
        round_dir = workdir / f"setup{len(rounds)}"
        round_dir.mkdir(parents=True)
        ops = workloads.build(args.workload, args.seed, round_dir, runner.setup_command, args.smoke)
        warm_up(runner, ops)
        rounds.append(import_s + time.perf_counter() - t0)
        if elapsed is not None:
            shutil.rmtree(round_dir)
        return ops

    try:
        ops = setup_round()
        env = environment()
        env["host.ref_kernel_ms"] = ref_kernel_ms()
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer(mpshift)
        wall, plain, traced, pairs = timed_loop(runner, ops, args.seconds, setup_round, tracer)
        env["host.ref_kernel_end_ms"] = ref_kernel_ms()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()

    metrics, info = plain.metrics(wall)
    metrics["setup_s"] = (min(rounds), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info.update(source_lines())
    tallies = [plain]
    if tracer is not None:
        tallies.append(traced)
        metrics = tracer.summary(traced.attempted, traced.op_seconds)
        metrics["trace.overhead_ms"] = (1e3 * statistics.median(pairs), "ms/op")
        metrics["trace.traced_ops"] = (traced.attempted, "count")
        metrics["host.ref_kernel_ms"] = (env["host.ref_kernel_ms"], "ms")
        metrics["env.blas_threads"] = (env["blas_threads"], "count")
        for key, count in info.items():
            if key.startswith("loc."):
                metrics[key] = (count, "lines")
        for category, count in traced.warnings.items():
            metrics[f"warnings.{category}"] = (count / traced.attempted, "count/op")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    reasons = sum((t.reasons for t in tallies), Counter())
    for category, count in sorted(sum((t.warnings for t in tallies), Counter()).items()):
        info[f"warnings.{category}"] = count
    info.update(sigma_missing=plain.sigma_missing, setup_rounds_s=rounds, first_import_s=first_import_s,
                timed_wall_s=wall, check_s=plain.check_seconds)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("# env " + json.dumps(env))
    for name, (val, unit) in sorted(metrics.items()):
        shown = "missing" if val is None else f"{val:.6g}"
        print(f"{name:<56} {shown:>14} {unit}")
    print("# info " + json.dumps(info))
    for reason, count in reasons.most_common(8):
        print(f"# failed x{count}: {reason}")
    # A span that never ran has zero calls and self time; a missing
    # end-to-end metric (every sample at its rank failed) stays null.
    missing = 0.0 if args.trace else None
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0] if name in metrics else missing, "unit": unit}
                    for name, unit in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
