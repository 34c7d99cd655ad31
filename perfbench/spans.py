"""Spans around the library's layers, recorded from outside the library.

:class:`Tracer` replaces functions on module attributes as each caller's
module sees them (``factorizations.spectral_radius`` as well as
``spectra.spectral_radius``), so a call is traced whichever module makes
it.  Each span records name, start, end, parent span and op id; spans stay
in memory and are aggregated when the run ends.  ``numpy.linalg`` calls are
counted and attributed to the span they run in.  ``install`` and
``uninstall`` swap the wrappers in and out, so untraced ops run the
original functions.
"""

from __future__ import annotations

import functools
import math
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("core", "spectra", "shifts", "factorizations", "equations")
# Private functions that ROADMAP names as layers of their own.
PRIVATE = {
    "factorizations": ("_h0", "_quad_fact_residual"),
    "equations": ("_sigma_or_nan",),
}
# Per-element helpers: a wrapper would cost more than the call itself.
SKIP = ("is_infinite", "unit_vector")
LINALG = ("svd", "eig", "eigvals", "solve", "det", "inv")


# Counters read off a span's return value: CR steps, and sigma failures that
# _sigma_or_nan swallows.
HOOKS = {
    "factorizations.cr_quadratic": lambda f: ("factorizations.cr_steps", f.iterations),
    "equations._sigma_or_nan": lambda sigma: ("equations.sigma_nan", int(math.isnan(sigma))),
}


class Tracer:
    def __init__(self, package):
        self.spans = []  # [name, start, end, parent index or -1, op id, error type or None]
        self.linalg = Counter()  # (span name, linalg function) -> calls
        self.counters = Counter()
        self.op = 0
        self._stack = []
        self._patches = []  # (namespace, attribute, original, wrapper)
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and ((not attr.startswith("_") and attr not in SKIP) or attr in PRIVATE.get(layer, ()))
                ):
                    wrappers[fn] = self._span(f"{layer}.{attr}", fn)
        cli = package.cli
        wrappers[cli.main] = self._span("cli.main", cli.main)
        for mod in [cli] + [getattr(package, layer) for layer in LAYERS]:
            for attr, fn in vars(mod).items():
                if isinstance(fn, types.FunctionType) and fn in wrappers:
                    self._patches.append((mod, attr, fn, wrappers[fn]))
        for name in LINALG:
            fn = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, fn, self._count(name, fn)))

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook:
                key, count = hook(result)
                self.counters[key] += count
            return result

        return traced

    def _count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            owner = self.spans[self._stack[-1]][0] if self._stack else "harness"
            self.linalg[(owner, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def summary(self, ops, op_wall_s):
        """Per-span calls, self and inclusive time, and errors, per traced op.

        ``ops`` is the number of traced ops and ``op_wall_s`` their total wall
        time as the harness measured it.  Self time is a span's duration minus
        the time its child spans cover; inclusive time is the whole duration.  Coverage is the self time of all
        spans below the root ``cli.main`` span over the ops' wall time.
        """
        child = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, incl_s, errors = Counter(), defaultdict(float), defaultdict(float), Counter()
        below_root = 0.0
        for i, (name, start, end, parent, _, error) in enumerate(self.spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            incl_s[name] += end - start
            if parent >= 0:
                below_root += own
            if error:
                errors[f"{name}.errors.{error}"] += 1
        per_op = max(ops, 1)
        out = {}
        for name in sorted(calls):
            out[f"{name}.calls"] = (calls[name] / per_op, "count/op")
            out[f"{name}.self_ms"] = (1e3 * self_s[name] / per_op, "ms/op")
            out[f"{name}.incl_ms"] = (1e3 * incl_s[name] / per_op, "ms/op")
        for key, count in sorted(errors.items()):
            out[key] = (count / per_op, "count/op")
        totals = Counter()
        for (owner, fn), count in sorted(self.linalg.items()):
            out[f"{owner}.linalg.{fn}"] = (count / per_op, "count/op")
            totals[fn] += count
        for fn in LINALG:
            out[f"numpy.linalg.{fn}.calls"] = (totals[fn] / per_op, "count/op")
        for key in ("factorizations.cr_steps", "equations.sigma_nan"):
            out[key] = (self.counters[key] / per_op, "count/op")
        out["trace.coverage"] = (below_root / op_wall_s if op_wall_s else 0.0, "ratio")
        return out
