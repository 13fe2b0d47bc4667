#!/usr/bin/env python3
"""greenbound benchmark: seeded closed-loop workloads with oracle checks.

Run from the repository root:

    python3 perfbench/run.py --workload tangent_solve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --repeats 5 --out before.json

One run executes one workload in this process with a single client: each
operation starts when the previous one has returned and been checked
against its oracle.  The run makes PASSES passes over the same whole
cycles of the workload's operation schedule, as many cycles as fit
``--seconds`` at the workload's nominal cycle time.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends the
first half of the time untraced and then replays those cycles once with
every layer function wrapped, and prints the per-layer metrics.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``failed`` counts
operations that failed unexpectedly; failures attributed to the named
known defects are listed by reason above it and enter ``failed_frac``.
``--workload all`` runs every workload ``--repeats`` times in child
processes and writes their results into one file for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = "1"
SETUP_REPEATS = 5
# Every op runs once per pass, the passes spread over the run, and its
# fastest time counts: on a shared host the CPU speed for Python code swings
# by about 20% within seconds, and the minimum over passes seconds apart
# is what repeats from run to run.
PASSES = 3
MAX_TRACEBACKS = 3

# traced shares next to what the workload was designed to show
PREDICTIONS = {
    "bounds_sweep": [("green.kernel_build.share", "about 0.85 of an n = 2001 op",
                      lambda v: v >= 0.5)],
    "singular_edges": [("green.potential.singular.share",
                        "singular potentials (shell moments, Gauss panels) do most of the work",
                        lambda v: v >= 0.5),
                       ("green.kernel_build.calls", "no kernel build after set-up",
                        lambda v: v == 0)],
    "tangent_solve": [("fixedpoint.apply_share",
                       "about 0.95 of solve time in potential + power_product",
                       lambda v: v >= 0.85)],
    "ex1_sweep": [("oscillate.apply.share", "nearly all op time",
                   lambda v: v >= 0.8),
                  ("green.kernel_build.calls", "zero kernel builds",
                   lambda v: v == 0)],
}


def _pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_seconds(src: str) -> float:
    """Time of ``import greenbound`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import greenbound; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    """Executes a workload's cycles and records (kind, seconds, reason)."""

    def __init__(self, workload, seed: int):
        from workloads import step

        self.workload = workload
        self.seed = seed
        self.step = step
        self.tracebacks = 0

    def _guarded(self, op, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # an op that raises is a failed op; keep going
            if self.tracebacks < MAX_TRACEBACKS:
                self.tracebacks += 1
                print(f"op {op.kind} {op.params} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return f"unexpected:raised:{type(exc).__name__}", True

    def _run_op(self, op, tracer, op_id):
        """Seconds spent in greenbound, and the oracle's verdict."""
        gen = self.workload.run(op)
        t0 = perf_counter()
        if tracer is not None:
            with tracer.op(op_id, op.kind):
                reason, done = self._guarded(op, self.step, gen)
        else:
            reason, done = self._guarded(op, self.step, gen)
        seconds = perf_counter() - t0
        if not done:
            reason, done = self._guarded(op, self.step, gen)
            if not done:
                raise RuntimeError(f"op {op.kind} yielded more than once")
        return seconds, reason

    def cycles(self, count: int, tracer=None):
        """Cycles 0..count-1 of the workload: (kind, seconds, reason) per op."""
        import numpy as np

        records = []
        for c in range(count):
            for op in self.workload.cycle(np.random.default_rng([self.seed, c])):
                busy, reason = self._run_op(op, tracer, len(records))
                records.append((op.kind, busy, reason))
        return records

    def passes(self, n_cycles: int):
        """PASSES runs over the same cycles, and their wall time."""
        start = perf_counter()
        runs = [self.cycles(n_cycles) for _ in range(PASSES)]
        return runs, perf_counter() - start


def _per_op(passes, reduce):
    """One record per op: its time reduced over the passes (min or median),
    with the first pass's verdict."""
    return [(kind, reduce([p[i][1] for p in passes]), reason)
            for i, (kind, _, reason) in enumerate(passes[0])]


def _busy(records) -> float:
    """Seconds spent inside greenbound calls; oracle checks are excluded."""
    return sum(r[1] for r in records)


def _by_kind(records) -> dict:
    out = {}
    for kind, busy, reason in records:
        k = out.setdefault(kind, {"ops": 0, "busy_s": 0.0, "failed": 0})
        k["ops"] += 1
        k["busy_s"] += busy
        k["failed"] += reason is not None
    return out


def _end_to_end(records, setup_s):
    lat = [r[1] for r in records]
    verified = sum(r[2] is None for r in records)
    return {
        "ops_per_s": (verified / _busy(records), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def run_workload(args, root: str) -> int:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "greenbound", "__init__.py")):
        print("error: no greenbound sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = perf_counter()
    import greenbound as gb
    import_samples = [perf_counter() - t0]
    if not os.path.abspath(gb.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: imported greenbound from {gb.__file__}, not ./src",
              file=sys.stderr)
        return 2
    import numpy as np

    import envinfo
    import oracles
    from tracer import Tracer
    from workloads import WORKLOADS

    spec = _spec(root)
    cls = WORKLOADS[args.workload]
    import_samples += [_import_seconds(src) for _ in range(SETUP_REPEATS - 1)]

    out_dir = os.path.join(root, ".bench_build", "perfbench")
    workdir = os.path.join(out_dir, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            tracer = Tracer()
            workload = cls(gb, tracer, workdir)
            t0 = perf_counter()
            workload.setup(np.random.default_rng([args.seed, 1 << 20]))
            setup_samples.append(perf_counter() - t0)
        import_s = statistics.median(import_samples)
        setup_s = import_s + statistics.median(setup_samples)

        runner = Runner(workload, args.seed)
        seconds = args.seconds / 2.0 if args.trace else args.seconds
        # the cycle count follows from --seconds and the workload's nominal
        # cycle time, so every run of a seed times the same operations
        n_cycles = max(1, round(seconds / (PASSES * cls.cycle_seconds)))
        passes, elapsed = runner.passes(n_cycles)
        records = _per_op(passes, min)
        metrics = _end_to_end(records, setup_s)
        all_records = [r for p in passes for r in p]
        if args.trace:
            tracer.install()
            try:
                traced = runner.cycles(n_cycles, tracer=tracer)
            finally:
                tracer.restore()
            all_records += traced
            trace_dir = os.path.join(out_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
            layer = tracer.layer_metrics()
            layer["setup.import_s"] = (import_s, "s")
            untraced = _busy(_per_op(passes, statistics.median))
            layer["trace.overhead_frac"] = (_busy(traced) / untraced - 1.0, "frac")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reasons = Counter(r[2] for r in all_records if r[2] is not None)
    attempted = len(all_records)
    unexpected = sum(v for k, v in reasons.items() if k.startswith("unexpected"))
    failed_frac = sum(reasons.values()) / attempted
    lat = sorted(r[1] for r in all_records)
    p90 = statistics.quantiles(lat, n=10)[-1] * 1e3 if len(lat) >= 100 else None

    if args.trace:
        metrics = dict(layer)
        metrics["failed_frac"] = (failed_frac, "frac")
        for reason in oracles.KNOWN_DEFECTS:
            metrics["fail." + reason] = (reasons.get(reason, 0), "count")
        metrics["fail.unexpected"] = (unexpected, "count")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print("error: metric set differs from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}", file=sys.stderr)
        return 1

    env = envinfo.record(root, args.seed, BLAS_THREADS)
    _print_report(args, env, records, elapsed, n_cycles, attempted, reasons,
                  failed_frac, p90, metrics, gb.__version__)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": unexpected == 0, "attempted": attempted,
        "failed": unexpected, "failed_frac": failed_frac,
        "failures": dict(reasons), "cycles": n_cycles, "elapsed_s": elapsed,
        "ops_by_kind": _by_kind(records),
        "latency_p90_ms": p90, "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = args.out or os.path.join(
        out_dir, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"runs": [result]}, fh, indent=1)
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": unexpected,
                      "metrics": result["metrics"]}))
    return 0


def _print_report(args, env, records, elapsed, n_cycles, attempted, reasons,
                  failed_frac, p90, metrics, version):
    kinds = Counter(r[0] for r in records)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"greenbound {version}")
    print(f"  closed loop, 1 client: {len(records)} ops in {n_cycles} cycles, "
          f"{PASSES} passes, {elapsed:.2f} s  ({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))})")
    print(f"  attempted {attempted}, failed {sum(reasons.values())}, "
          f"failed_frac {failed_frac:.4f}")
    for reason, count in sorted(reasons.items()):
        print(f"    {reason}: {count}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'latency_p90_ms':42s} "
              + (f"{p90:14.6g} ms" if p90 is not None
                 else f"{'-':>14s}    (fewer than 100 ops)"))
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"  scaling (peak_rss_mb {rss:.1f}):")
        for n in (2001, 4001, 8001):
            pot = metrics[f"green.potential.s_per_call.n{n}"][0]
            build = metrics[f"green.kernel_build.s_per_call.n{n}"][0]
            if pot == build == 0.0:
                continue
            print(f"    n={n}: potential {pot * 1e3:9.3f} ms/call (self), "
                  f"kernel build {build * 1e3:9.3f} ms/call, "
                  f"dense K {n * n * 8 / 2**20:7.1f} MiB")
        for name, predicted, holds in PREDICTIONS[args.workload]:
            value = metrics[name][0]
            print(f"  prediction {name}: {predicted}; measured {value:.4g} "
                  f"({'holds' if holds(value) else 'CONTRADICTED'})")
    print("  env: " + json.dumps(env, sort_keys=True))


def run_all(args, root: str) -> int:
    """Every workload, ``--repeats`` seeds each, in child processes."""
    from workloads import WORKLOADS

    out_dir = os.path.join(root, ".bench_build", "perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    for name in WORKLOADS:
        for r in range(args.repeats):
            seed = args.seed + r
            part = os.path.join(out_dir, f"all-{name}-seed{seed}-trace{args.trace}.json")
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", part]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  timeout=900)
            sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} seed {seed} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            with open(part) as fh:
                runs += json.load(fh)["runs"]
    out = args.out or os.path.join(out_dir, time.strftime("all-%Y%m%d-%H%M%S.json"))
    with open(out, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1)
    from compare import summarize
    print(summarize(runs))
    print(f"results written to {out}")
    return 0


def main(argv=None) -> int:
    _pin_blas()   # before anything imports numpy
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeats", type=int, default=1,
                   help="seeds per workload with --workload all")
    p.add_argument("--out", help="result file (JSON)")
    args = p.parse_args(argv)
    root = os.getcwd()
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
