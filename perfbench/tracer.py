"""Outside-in span tracer for greenbound's layers.

greenbound's modules import each other's functions by name
(``from .green import potential``), so wrapping a function where it is
defined is not enough: every module attribute bound to it is replaced by
the same wrapper, and every one is put back by :meth:`Tracer.restore`.
``Kernel.matrix_for`` and ``Kernel.rows_at`` are wrapped on the class.

Spans are kept in memory as [id, parent, op, name, start, end, attrs]
records and written out once, after the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("greenbound", "greenbound.domain", "greenbound.green",
           "greenbound.estimates", "greenbound.fixedpoint",
           "greenbound.bvp", "greenbound._oscillate", "greenbound.scenarios",
           "greenbound.cli")

# (defining module, function name, span name); None picks the potential's
# span name from its argument.  phi's functions are not wrapped: their time
# is part of the bound assembly they serve.
LAYER_FUNCTIONS = [
    ("domain", "sample", "domain.sample"),
    ("green", "potential", None),
    ("green", "power_product", "green.power_product"),
    ("green", "iterated_kernel", "green.iterated_kernel"),
    ("green", "improper_potential_at", "green.improper"),
    ("green", "potential_improper", "green.improper"),
    ("estimates", "thm1_bound", "estimates.bound"),
    ("estimates", "thm2_bound", "estimates.bound"),
    ("estimates", "thm3_bound", "estimates.bound"),
    ("estimates", "thm4_conditions", "estimates.bound"),
    ("estimates", "unified_bound", "estimates.bound"),
    ("fixedpoint", "solve_integral_equation", "fixedpoint.solve"),
    ("bvp", "fd_solve", "bvp.fd_solve"),
    ("_oscillate", "green_apply_oscillatory", "oscillate.apply"),
    ("scenarios", "build_scenario", "scenarios.build"),
    ("scenarios", "fit_boundary_rate", "scenarios.fit"),
    ("scenarios", "verify_cancellation_ex1", "scenarios.ex1"),
    ("scenarios", "sharpness_report_ex4", "scenarios.ex4"),
    ("cli", "main", "cli.main"),
]


def _potential_name(args, kwargs):
    f = args[1] if len(args) > 1 else kwargs["f"]
    vals = f.values
    smooth = bool(np.isfinite(vals[0]) and np.isfinite(vals[-1]))
    return ("green.potential.smooth" if smooth else "green.potential.singular",
            {"n": f.grid.n})


class Tracer:
    """Records spans around greenbound's layer functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.active = False

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self.op_id, name, perf_counter(), None,
               attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self._stack.pop()

    def op(self, op_id: int, kind: str):
        """Context manager for the root span of one benchmark operation."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op_id = op_id
                self.rec = tracer._open("op", {"kind": kind})

            def __exit__(self, *exc):
                tracer._close(self.rec)
                tracer.op_id = None
                return False

        return _Op()

    def counted(self, fn, counter: str):
        """fn itself when inactive, else fn counting evaluated points."""
        if not self.active or fn is None:
            return fn
        counts = self.counts

        def counting(y, *args, **kwargs):
            counts[counter] += int(np.size(y))
            return fn(y, *args, **kwargs)

        return counting

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if callable(name):
                span_name, attrs = name(args, kwargs)
                if span_name is None:          # counted in the caller's span
                    return fn(*args, **kwargs)
            else:
                span_name, attrs = name, {}
            if span_name == "oscillate.apply":
                args = (tracer.counted(args[0], "oscillate.w_evals"),) + args[1:]
            rec = tracer._open(span_name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            tracer._annotate(rec, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _annotate(self, rec: list, result) -> None:
        name, attrs = rec[3], rec[6]
        if name == "fixedpoint.solve":
            attrs.update(k_stop=result.k_stop, converged=result.converged,
                         accelerated=result.accelerated)
        elif name == "bvp.fd_solve":
            attrs.update(iterations=result.iterations,
                         halvings=result.damping_events)
        elif name == "oscillate.apply":
            attrs.update(periods=result.periods,
                         alternating_ok=result.alternating_ok)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every layer function, and the kernel methods."""
        mods = {m: importlib.import_module(m) for m in MODULES}
        wrappers = {}
        for mod, attr, name in LAYER_FUNCTIONS:
            fn = getattr(mods["greenbound." + mod], attr)
            wrappers[id(fn)] = self._wrap(fn, name or _potential_name)
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

        kernel = mods["greenbound.green"].Kernel
        tracer = self

        def rows_name(args, kwargs):
            xs, ys = np.asarray(args[1]), np.asarray(args[2])
            parent = tracer.spans[tracer._stack[-1]][3] if tracer._stack else None
            if parent != "green.matrix_for":
                return None, None
            return "green.kernel_build", {"n": int(ys.size),
                                          "bytes": int(xs.size * ys.size * 8)}

        for attr, name in (("matrix_for", "green.matrix_for"),
                           ("rows_at", rows_name)):
            original = vars(kernel)[attr]
            self._patches.append((kernel, attr, original))
            setattr(kernel, attr, self._wrap(original, name))
        self.active = True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1,
                                     "attrs": attrs}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts, self times and derived ratios (name -> (value, unit))."""
        spans = self.spans
        dur = [rec[5] - rec[4] for rec in spans]
        own = list(dur)
        for rec, d in zip(spans, dur):
            if rec[1] is not None:
                own[rec[1]] -= d
        calls, self_s = Counter(), defaultdict(float)
        for rec, s in zip(spans, own):
            calls[rec[3]] += 1
            self_s[rec[3]] += s
        children = defaultdict(list)
        for rec in spans:
            if rec[1] is not None:
                children[rec[1]].append(rec)

        def by_n(names, use_self):
            acc = defaultdict(list)
            for rec, s, d in zip(spans, own, dur):
                if rec[3] in names:
                    acc[rec[6]["n"]].append(s if use_self else d)
            return {n: float(np.mean(v)) for n, v in acc.items()}

        op_time = sum(d for rec, d in zip(spans, dur) if rec[3] == "op")
        m = {}

        def put(name, value, unit):
            m[name] = (float(value), unit)

        for layer in ("green.kernel_build", "green.potential.smooth",
                      "green.potential.singular", "green.power_product",
                      "estimates.bound", "domain.sample", "oscillate.apply",
                      "cli.main"):
            put(layer + ".calls", calls[layer], "count")
            put(layer + ".self_s", self_s[layer], "s")
        for layer in ("green.iterated_kernel", "green.improper",
                      "fixedpoint.solve", "bvp.fd_solve", "scenarios.ex1",
                      "scenarios.build", "scenarios.fit", "scenarios.ex4"):
            put(layer + ".self_s", self_s[layer], "s")
        put("green.kernel_build.bytes",
            sum(rec[6]["bytes"] for rec in spans if rec[3] == "green.kernel_build"),
            "bytes")
        pot = by_n({"green.potential.smooth", "green.potential.singular"}, True)
        build = by_n({"green.kernel_build"}, False)
        for n in (2001, 4001, 8001):
            put(f"green.potential.s_per_call.n{n}", pot.get(n, 0.0), "s")
            put(f"green.kernel_build.s_per_call.n{n}", build.get(n, 0.0), "s")
        put("green.fn_evals", self.counts["green.fn_evals"], "count")

        solves = [rec for rec in spans if rec[3] == "fixedpoint.solve"]
        iters = maps = attempts = conv = acc = 0
        solve_time = apply_time = 0.0
        for rec in solves:
            a = rec[6]
            pots = [c for c in children[rec[0]] if c[3].startswith("green.potential")]
            iters += a["k_stop"]
            maps += len(pots) - 1
            attempts += len(pots) - 1 - a["k_stop"] - int(a["converged"] and not a["accelerated"])
            conv += int(a["converged"])
            acc += int(a["accelerated"])
            solve_time += rec[5] - rec[4]
            apply_time += sum(c[5] - c[4] for c in children[rec[0]]
                              if c[3].startswith("green.potential")
                              or c[3] == "green.power_product")
        ns = max(len(solves), 1)
        put("fixedpoint.iterations", iters, "count")
        put("fixedpoint.map_applications", maps, "count")
        put("fixedpoint.extrap_attempts", attempts, "count")
        put("fixedpoint.converged_frac", conv / ns, "frac")
        put("fixedpoint.accelerated_frac", acc / ns, "frac")
        put("fixedpoint.apply_share", apply_time / solve_time if solve_time else 0.0,
            "frac")

        fds = [rec[6] for rec in spans if rec[3] == "bvp.fd_solve"]
        put("bvp.newton_iters", sum(a["iterations"] for a in fds), "count")
        put("bvp.halvings", sum(a["halvings"] for a in fds), "count")

        osc = [rec[6] for rec in spans if rec[3] == "oscillate.apply"]
        put("oscillate.w_evals", self.counts["oscillate.w_evals"], "count")
        put("oscillate.periods", sum(a["periods"] for a in osc), "count")
        put("oscillate.alternating_ok_frac",
            sum(a["alternating_ok"] for a in osc) / max(len(osc), 1), "frac")

        share = (lambda t: t / op_time if op_time else 0.0)
        put("green.kernel_build.share", share(self_s["green.kernel_build"]), "frac")
        put("green.potential.singular.share",
            share(self_s["green.potential.singular"]), "frac")
        put("oscillate.apply.share", share(self_s["oscillate.apply"]), "frac")
        put("trace.untraced_share", share(self_s["op"]), "frac")
        return m
