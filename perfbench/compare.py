#!/usr/bin/env python3
"""Before/after table between two benchmark result files.

    python3 perfbench/compare.py before.json after.json

Each file holds {"runs": [...]} as written by ``run.py --out`` or
``run.py --workload all``.  There is one row per (workload, metric) with
the median and quartiles of each side, the change of the medians oriented
so that positive is worse, and a verdict taken from the bounds in
BENCHMARK.json:

* regressed  -- worse by more than the metric's bound;
* unresolved -- the run-to-run spread (quartile distance over median) is
  wider than the bound, and not every after run beats every before run;
* improved   -- better by more than the before side's spread, with
  disjoint interquartile ranges (or every after run better than every
  before run);
* unchanged  -- otherwise.

Per-layer metrics have no bound; for them only improved, regressed (the
mirror of improved) and unchanged are given.  A change in ``failed_frac``
is broken down by failure reason below the table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from collections import defaultdict


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _load(path):
    with open(path) as fh:
        return json.load(fh)["runs"]


def _collect(runs):
    """(workload, metric) -> values, and per-workload failure tallies."""
    values = defaultdict(list)
    units = {}
    fails = defaultdict(lambda: defaultdict(int))
    attempted = defaultdict(int)
    for run in runs:
        w = run["workload"]
        for name, m in run["metrics"].items():
            values[(w, name)].append(m["value"])
            units[name] = m["unit"]
        attempted[w] += run["attempted"]
        for reason, count in run["failures"].items():
            fails[w][reason] += count
    return values, units, fails, attempted


def verdict(before, after, better, bound):
    """(change, word): change of the medians over the before median,
    positive when worse."""
    b1, bmed, b3 = _quartiles(before)
    a1, amed, a3 = _quartiles(after)
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(bmed) or 1.0
    change = sign * (amed - bmed) / scale
    spread = max((b3 - b1) / scale, (a3 - a1) / (abs(amed) or 1.0))
    clear = abs(change) > (b3 - b1) / scale

    def up(vals):                       # oriented so that larger is better
        return sorted(-sign * v for v in vals)

    ob, oa = up(before), up(after)
    qb, qa = up((b1, b3)), up((a1, a3))
    all_better, all_worse = oa[0] > ob[-1], oa[-1] < ob[0]
    disjoint_better, disjoint_worse = qa[0] > qb[1], qa[1] < qb[0]
    if bound is not None:
        if change > bound:
            return change, "regressed"
        if spread > bound and not all_better:
            return change, "unresolved"
    elif change > 0 and clear and (disjoint_worse or all_worse):
        return change, "regressed"
    if change < 0 and clear and (disjoint_better or all_better):
        return change, "improved"
    return change, "unchanged"


def summarize(runs) -> str:
    """Median [q1, q3] per (workload, metric) of one set of runs."""
    values, units, fails, attempted = _collect(runs)
    lines = [f"{'workload':15s} {'metric':42s} {'n':>3s} {'median':>12s} "
             f"{'q1':>12s} {'q3':>12s}  unit"]
    for (w, name), vals in sorted(values.items()):
        q1, med, q3 = _quartiles(vals)
        lines.append(f"{w:15s} {name:42s} {len(vals):3d} {med:12.6g} "
                     f"{q1:12.6g} {q3:12.6g}  {units[name]}")
    for w in sorted(attempted):
        tally = ", ".join(f"{r} {c}" for r, c in sorted(fails[w].items())) or "none"
        lines.append(f"{w}: {attempted[w]} ops attempted; failures: {tally}")
    return "\n".join(lines)


def compare(before_runs, after_runs, spec) -> str:
    vb, units, fb, ab = _collect(before_runs)
    va, units_a, fa, aa = _collect(after_runs)
    units.update(units_a)
    meta = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'workload':15s} {'metric':42s} {'before median [q1, q3]':>36s} "
             f"{'after median [q1, q3]':>36s} {'change':>8s}  verdict"]
    for key in sorted(set(vb) | set(va)):
        w, name = key
        if key not in vb or key not in va or name not in meta:
            lines.append(f"{w:15s} {name:42s} only in "
                         f"{'after' if key not in vb else 'before'}")
            continue
        better, bound = meta[name]
        change, word = verdict(vb[key], va[key], better, bound)
        fmt = (lambda v: "{1:.4g} [{0:.4g}, {2:.4g}]".format(*_quartiles(v)))
        lines.append(f"{w:15s} {name:42s} {fmt(vb[key]):>36s} {fmt(va[key]):>36s} "
                     f"{change:+8.1%}  {word}")
    lines.append("")
    lines.append("failed_frac by reason (failures / ops attempted):")
    for w in sorted(set(ab) | set(aa)):
        reasons = sorted(set(fb[w]) | set(fa[w]))
        for r in reasons:
            before = fb[w][r] / ab[w] if ab[w] else 0.0
            after = fa[w][r] / aa[w] if aa[w] else 0.0
            mark = "" if abs(after - before) < 1e-12 else "  changed"
            lines.append(f"  {w:15s} {r:50s} {before:8.4f} -> {after:8.4f}{mark}")
        if not reasons:
            lines.append(f"  {w:15s} no failures on either side")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)
    print(compare(_load(args.before), _load(args.after), spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
