import math
import tracemalloc

import numpy as np
import pytest

from greenbound import (DomainError, GridFn, Interval, Kernel,
                        NotIntegrableError, improper_potential_at,
                        iterated_kernel, make_grid, potential,
                        potential_improper, power_product, sample)
from greenbound import green


@pytest.fixture(scope="module")
def unit():
    grid = make_grid(Interval(0.0, 1.0), 201)
    return grid, Kernel.closed_form(grid.interval)


def test_kernel_point_values():
    k01 = Kernel.closed_form(Interval(0.0, 1.0))
    assert k01.eval(0.5, 0.5) == pytest.approx(0.25, abs=1e-16)
    k11 = Kernel.closed_form(Interval(-1.0, 1.0))
    # normalized by 1/(b-a): the oracle below (f=1 potential) pins this choice
    assert k11.eval(0.0, 0.0) == pytest.approx(0.5, abs=1e-16)
    assert k01.eval(0.0, 0.7) == 0.0
    assert k01.eval(0.3, 0.8) == k01.eval(0.8, 0.3)


def test_kernel_outside_interval():
    k = Kernel.closed_form(Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        k.eval(-0.1, 0.5)


@pytest.mark.parametrize("interval,h_exact", [
    (Interval(0.0, 1.0), lambda x: 0.5 * x * (1 - x)),
    (Interval(-1.0, 1.0), lambda x: 0.5 * (1 - x * x)),
])
def test_potential_of_one_closed_form(interval, h_exact):
    grid = make_grid(interval, 2001)
    k = Kernel.closed_form(interval)
    res = potential(k, sample(lambda x: 1.0, grid))
    he = h_exact(grid.nodes)
    rel = np.abs(res.value.values[1:-1] - he[1:-1]) / he[1:-1]
    assert np.max(rel) <= 1e-12
    assert res.fully_defined and res.finite


def test_kernel_normalization_oracle():
    # second difference of x -> G(x, y) should act like a unit point mass:
    # summing -D2 G(., y) columns against any f reproduces f (interior)
    grid = make_grid(Interval(-1.0, 1.0), 401)
    k = Kernel.closed_form(grid.interval)
    f = sample(lambda x: 1.0 + 0.5 * np.sin(2 * x), grid)
    u = potential(k, f).value.values
    dx = grid.spacing
    lap = (u[2:] - 2 * u[1:-1] + u[:-2]) / dx ** 2
    assert np.max(np.abs(-lap - f.values[1:-1])) <= 1e-6


def test_potential_of_zero(unit):
    grid, k = unit
    res = potential(k, GridFn(grid, np.zeros(grid.n)))
    assert np.all(res.value.values == 0.0)


def test_potential_positivity(unit):
    grid, k = unit
    rng = np.random.default_rng(1)
    f = GridFn(grid, np.where(rng.uniform(0, 1, grid.n) > 0.7,
                              rng.uniform(0, 1, grid.n), 0.0))
    res = potential(k, f)
    assert np.all(res.value.values[1:-1] > 0)


def test_potential_monotone_in_f(unit):
    grid, k = unit
    rng = np.random.default_rng(2)
    f1 = GridFn(grid, rng.uniform(-1, 1, grid.n))
    f2 = GridFn(grid, f1.values + rng.uniform(0, 1, grid.n))
    v1 = potential(k, f1).value.values
    v2 = potential(k, f2).value.values
    assert np.all(v1 <= v2 + 1e-14)


def test_potential_domain_monotonicity():
    # nested interval potential is dominated at shared nodes for f >= 0
    outer = make_grid(Interval(0.0, 1.0), 101)
    inner = make_grid(Interval(0.25, 0.75), 51)
    fo = sample(lambda x: 1.0 + x, outer)
    fi = sample(lambda x: 1.0 + x, inner)
    po = potential(Kernel.closed_form(outer.interval), fo).value
    pi = potential(Kernel.closed_form(inner.interval), fi).value
    shared = np.isin(np.round(outer.nodes, 12), np.round(inner.nodes, 12))
    assert np.all(pi.values <= po.values[shared] + 1e-14)


@pytest.mark.parametrize("s,finite", [(0.5, True), (1.5, True),
                                      (2.0, False), (2.5, False)])
def test_singular_source_divergence_detection(s, finite):
    grid = make_grid(Interval(0.0, 1.0), 801)
    k = Kernel.closed_form(grid.interval)
    f = sample(lambda x, s=s: min(x, 1 - x) ** (-s), grid)
    res = potential(k, f)
    assert res.plus_infinite is (not finite)
    mid = res.value.values[grid.n // 2]
    assert np.isfinite(mid) if finite else np.isposinf(mid)


def test_singular_source_accuracy():
    # f = d^{-1/2}: G f at the center has the closed form
    # ∫_0^1 G(1/2,y) y^{-1/2} dy with kernel min(y,1-y)/2... computed exactly:
    # 2*∫_0^{1/2} (y/2)·y^{-1/2} dy + correction; oracle by 10^6-node trapezoid
    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    f = sample(lambda x: x ** (-0.5), grid)
    got = potential(k, f).value.values[grid.n // 2]
    y = np.linspace(1e-12, 1.0, 1_000_001)
    oracle = np.trapezoid(np.minimum(0.5 * y, 0.5 * (1 - y)) * y ** (-0.5), y)
    assert got == pytest.approx(oracle, rel=2e-6)


def test_undefined_when_both_parts_diverge():
    grid = make_grid(Interval(0.0, 1.0), 801)
    k = Kernel.closed_form(grid.interval)
    f = sample(lambda x: (1.0 if x < 0.5 else -1.0) * min(x, 1 - x) ** (-2.2), grid)
    res = potential(k, f)
    assert res.plus_infinite and res.minus_infinite
    assert not res.well_defined[1:-1].any()
    assert np.isnan(res.value.values[1:-1]).all()
    assert "undefined_inf_minus_inf" in res.status()


def test_potential_rejects_interior_infinity(unit):
    grid, k = unit
    vals = np.ones(grid.n)
    vals[grid.n // 2] = np.inf
    with pytest.raises(NotIntegrableError):
        potential(k, GridFn(grid, vals))


def test_nan_endpoint_with_an_expression_is_probed():
    """x·log x reads nan (0·-inf) at x = 0; its expression is integrable."""
    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    f = sample(lambda x: x * np.log(x), grid)
    assert np.isnan(f.values[0])
    exact = -0.0376427670716678     # mpmath.quad of G(1/2, y) y log y
    mid = grid.n // 2
    assert potential(k, f).value.values[mid] == pytest.approx(exact, rel=1e-6)
    assert potential_improper(k, f).value.values[mid] == pytest.approx(exact, rel=1e-6)
    with pytest.raises(NotIntegrableError):
        potential(k, GridFn(grid, f.values))        # no expression to probe
    vals = np.ones(grid.n)
    vals[mid] = np.nan
    with pytest.raises(NotIntegrableError):
        potential(k, GridFn(grid, vals, fn=lambda x: 1.0))


def _contract_source(grid, case):
    if case == "nan endpoint with an expression":
        return sample(lambda x: x * np.log(x), grid)
    idx, value, fn = {
        "interior inf": (100, np.inf, None),
        "interior nan": (100, np.nan, None),
        "interior nan with an expression": (100, np.nan, lambda x: 1.0 + 0.0 * x),
        "value-only nan endpoint": (0, np.nan, None),
        "+-inf endpoints": ([0, -1], [np.inf, -np.inf], None),
    }[case]
    vals = np.ones(grid.n)
    vals[idx] = value
    return GridFn(grid, vals, fn=fn)


@pytest.mark.parametrize("case,refusal", [
    ("interior inf", "interior values must be finite"),
    ("interior nan", "nan values are not integrable"),
    ("interior nan with an expression", "nan values are not integrable"),
    ("value-only nan endpoint", "nan values are not integrable"),
    ("nan endpoint with an expression", None),
    ("+-inf endpoints", None),
])
def test_green_integrals_share_one_source_contract(unit, case, refusal):
    """Every Green integral accepts or refuses a source alike."""
    grid, k = unit
    f = _contract_source(grid, case)
    calls = [lambda: potential(k, f),
             lambda: potential_improper(k, f, levels=4),
             lambda: improper_potential_at(k, f, 0.5, levels=4),
             lambda: iterated_kernel(k, f, 0.3, 0.6)]
    for call in calls:
        if refusal is None:
            call()
        else:
            with pytest.raises(NotIntegrableError, match=refusal):
                call()


def test_power_product_endpoint_markers(unit):
    grid, k = unit
    h = potential(k, sample(lambda x: 1.0, grid)).value
    V = sample(lambda x: x * (1 - x), grid)          # vanishes at endpoints
    w = power_product(h, -1.0, V)                    # 0^{-1} * 0 at ends
    assert np.isinf(w.values[0]) and np.isinf(w.values[-1])
    assert np.all(np.isfinite(w.values[1:-1]))


def test_improper_monotone_to_potential(unit):
    grid, k = unit
    f = sample(lambda x: 1.0 + np.sin(3.0 * x), grid)
    imp = potential_improper(k, f, levels=12)
    direct = potential(k, f).value.values
    mid = grid.n // 2
    seq = [s[mid] for s in imp.sequence if np.isfinite(s[mid])]
    assert all(seq[i] <= seq[i + 1] + 1e-12 for i in range(len(seq) - 1))
    assert imp.value.values[mid] == pytest.approx(direct[mid], abs=5e-4)


def test_improper_of_zero(unit):
    grid, k = unit
    imp = potential_improper(k, GridFn(grid, np.zeros(grid.n)), levels=12)
    assert np.all(imp.value.values == 0.0)


def test_improper_at_point_outside():
    grid = make_grid(Interval(0.0, 1.0), 101)
    k = Kernel.closed_form(grid.interval)
    f = sample(lambda x: 1.0, grid)
    with pytest.raises(DomainError):
        improper_potential_at(k, f, 1.0 + 1e-9)
    seq = improper_potential_at(k, f, 0.5, levels=12)
    assert len(seq) == 12 and seq[-1] == pytest.approx(0.125, abs=1e-4)


def test_improper_at_point_checks_its_kernel():
    grid = make_grid(Interval(0.0, 1.0), 101)
    f = sample(lambda x: 1.0, grid)
    with pytest.raises(DomainError):
        improper_potential_at(Kernel.closed_form(Interval(0.0, 2.0)), f, 0.5)


def test_iterated_kernel_zero_and_symmetry(unit):
    grid, k = unit
    V0 = GridFn(grid, np.zeros(grid.n))
    assert iterated_kernel(k, V0, 0.3, 0.7) == 0.0
    V = sample(lambda x: 1.0 + x, grid)
    assert iterated_kernel(k, V, 0.2, 0.6) == pytest.approx(
        iterated_kernel(k, V, 0.6, 0.2), rel=1e-13)


def test_iterated_kernel_center_value():
    # V = 1 at x=y=1/2: ∫ G(1/2,z)² dz = (1/4)∫ min(z,1-z)² dz = 1/48
    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    V = sample(lambda x: 1.0, grid)
    assert iterated_kernel(k, V, 0.5, 0.5) == pytest.approx(1.0 / 48.0, rel=1e-6)


def test_improper_needs_two_levels(unit):
    grid, k = unit
    with pytest.raises(DomainError):
        potential_improper(k, sample(lambda x: 1.0, grid), levels=1)


def _two_sided_power(grid, beta, sign=None):
    def fn(x):
        d = np.minimum(x, 1.0 - x) ** -beta
        return d if sign is None else np.sign(x - 0.5) * d

    with np.errstate(divide="ignore", invalid="ignore"):
        return GridFn(grid, fn(grid.nodes), fn=fn)


def test_improper_value_is_the_proper_potential_where_defined(unit):
    grid, k = unit
    for f in (sample(lambda x: 1.0 + np.sin(3.0 * x), grid),
              _two_sided_power(grid, 1.5),
              GridFn(grid, _two_sided_power(grid, 1.5).values),
              _two_sided_power(grid, 2.5, sign=True)):
        proper = potential(k, f)
        got = potential_improper(k, f).value.values
        well = proper.well_defined
        assert np.array_equal(got[well], proper.value.values[well])


@pytest.mark.parametrize("beta", [0.5, 1.5, 1.9])
def test_improper_levels_match_mpmath(beta):
    mpmath = pytest.importorskip("mpmath")
    grid = make_grid(Interval(0.0, 1.0), 2001)
    x = 0.37
    seq = improper_potential_at(Kernel.closed_form(grid.interval),
                                _two_sided_power(grid, beta), x)
    assert len(seq) == 20
    for m in (1, 4, 7, 10, 13, 16, 19, 20):    # a spread of levels keeps it fast
        am = mpmath.mpf(2) ** -(m + 2)
        bm = 1 - am
        A = mpmath.quad(lambda y: (y - am) * y ** -beta, [am, x])
        B = mpmath.quad(lambda y: (bm - y) * min(y, 1 - y) ** -beta, [x, 0.5, bm])
        ref = ((bm - x) * A + (x - am) * B) / (bm - am)
        assert seq[m - 1] == pytest.approx(float(ref), rel=1e-9), m


def test_improper_value_at_an_undefined_node():
    # sign(x - 1/2) d^{-2.5}: both parts are +inf, the exact improper value
    # at the center is 0 by antisymmetry
    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    f = _two_sided_power(grid, 2.5, sign=True)
    mid = grid.n // 2
    assert not potential(k, f).well_defined[mid]
    imp = potential_improper(k, f)
    deepest = imp.sequence[-1]
    assert imp.value.values[mid] == deepest[mid]
    assert abs(deepest[mid]) <= 1e-5 * np.nanmax(np.abs(deepest))


@pytest.mark.parametrize("beta", [
    0.5, 1.2, 1.5,
    pytest.param(1.8, marks=pytest.mark.xfail(
        strict=True, reason="improper_singular_source_inaccurate")),
])
def test_improper_deepest_level_tracks_the_power_potential(beta):
    from perfbench.oracles import power_source_potential

    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    f = _two_sided_power(grid, beta)
    for x in (0.01, 0.1, 0.5, 0.99):
        got = improper_potential_at(k, f, x)[-1]
        assert got == pytest.approx(power_source_potential(x, beta, "two"), rel=1e-2)


def test_benchmark_improper_ops_fail_only_with_known_defects(tmp_path, monkeypatch):
    """perfbench's improper_at and improper_full ops over their beta range.

    A result other than None or a known defect counts as an unexpected
    failure of the singular_edges workload.
    """
    from pathlib import Path

    import greenbound
    from perfbench.tracer import Tracer

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    load = workloads.SingularEdges(greenbound, Tracer(), tmp_path)
    load.setup(np.random.default_rng(0))
    known = set(workloads.O.KNOWN_DEFECTS)
    for beta in np.linspace(0.2, 1.8, 9):
        for x in (0.01, 0.37, 0.99):
            op = workloads.Op("improper_at", {"beta": float(beta), "x": x})
            assert load.execute(op) in known | {None}, op
        op = workloads.Op("improper_full", {"beta": float(beta)})
        assert load.execute(op) in known | {None}, op


@pytest.mark.parametrize("seed", [3101, 3102])
def test_benchmark_singular_ops_fail_only_with_known_defects(tmp_path, monkeypatch, seed):
    """perfbench's power, sign_changing and iterated ops of one seeded cycle.

    These ops reach every boundary-panel moment.  A result other than None
    or a known defect counts as an unexpected failure of the singular_edges
    workload.
    """
    from pathlib import Path

    import greenbound
    from perfbench.tracer import Tracer

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    load = workloads.SingularEdges(greenbound, Tracer(), tmp_path)
    rng = np.random.default_rng(seed)
    load.setup(rng)
    known = set(workloads.O.KNOWN_DEFECTS) | {None}
    kinds = {"power", "sign_changing", "iterated"}
    ops = [op for op in load.cycle(rng) if op.kind in kinds]
    assert {op.kind for op in ops} == kinds
    for op in ops:
        assert load.execute(op) in known, op


def test_iterated_kernel_needs_interior_points(unit):
    grid, k = unit
    V = sample(lambda x: 1.0, grid)
    with pytest.raises(DomainError):
        iterated_kernel(k, V, 0.0, 0.5)


def test_iterated_kernel_divergent_weight():
    grid = make_grid(Interval(0.0, 1.0), 401)
    k = Kernel.closed_form(grid.interval)
    V = sample(lambda x: min(x, 1 - x) ** (-3.1), grid)
    with pytest.raises(NotIntegrableError):
        iterated_kernel(k, V, 0.4, 0.6)


def test_benchmark_tracer_wraps_and_restores_kernel_methods():
    from perfbench.tracer import Tracer

    originals = {attr: vars(Kernel)[attr] for attr in ("matrix_for", "rows_at")}
    grid = make_grid(Interval(0.0, 1.0), 41)
    k = Kernel.closed_form(grid.interval)
    tracer = Tracer()
    tracer.install()
    try:
        k.matrix_for(grid)
        green.potential(k, sample(lambda x: np.minimum(x, 1 - x) ** -1.5, grid))
        green.iterated_kernel(k, sample(lambda x: 1.0 + x, grid), 0.3, 0.6)
    finally:
        tracer.restore()
    assert {"green.matrix_for", "green.kernel_build"} <= {rec[3] for rec in tracer.spans}
    assert all(vars(Kernel)[attr] is fn for attr, fn in originals.items())


@pytest.mark.parametrize("x", [
    1e-3,
    pytest.param(1e-4, marks=pytest.mark.xfail(strict=True, reason=(
        "the edge moment assumes G(x,z) = (z-a)(b-x)/L across the whole first "
        "panel, which fails once x < a + dx"))),
])
def test_iterated_kernel_near_a_singular_edge(x):
    from perfbench.oracles import iterated_power_kernel

    grid = make_grid(Interval(0.0, 1.0), 2001)
    V = sample(lambda t: np.minimum(t, 1 - t) ** -1.5, grid)
    got = iterated_kernel(Kernel.closed_form(grid.interval), V, x, 0.5)
    assert got == pytest.approx(iterated_power_kernel(x, 0.5, 1.5), rel=1e-3)


@pytest.mark.parametrize("n", [3, 4, 5, 2001])
def test_two_moment_apply_matches_dense_kernel(n, monkeypatch):
    grid = make_grid(Interval(-1.0, 2.0), n)
    closed = Kernel.closed_form(grid.interval)
    a, b = grid.interval.left, grid.interval.right
    sources = [lambda x: np.cos(3.0 * x) - 0.2,
               lambda x: (x - a) ** -1.5 - 0.5 * (b - x) ** -0.7,
               lambda x: np.minimum(x - a, b - x) ** -1.2 * np.sin(5.0 * x)]
    for fn in sources:
        f = sample(fn, grid)
        for src in (f, GridFn(grid, f.values)):
            got = potential(closed, src).value.values
            with monkeypatch.context() as dense:
                # reference: the same masses summed through the n×n kernel matrix
                dense.setattr(Kernel, "apply",
                              lambda self, g, mass: self.matrix_for(g) @ mass)
                ref = potential(closed, src).value.values
            scale = np.max(np.abs(ref[np.isfinite(ref)]), initial=1.0)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * scale)
    smooth = sample(sources[0], grid)
    imp = potential_improper(closed, smooth, levels=3)
    probes = np.flatnonzero(np.isfinite(imp.sequence[0]))[::max(1, n // 40)]
    x = grid.nodes[probes]

    def F2(t):      # F2'' = cos 3t - 0.2
        return -np.cos(3.0 * t) / 9.0 - 0.1 * t ** 2

    for delta, level in zip(imp.deltas, imp.sequence):
        am, bm = a + delta, b - delta
        ref = -F2(x) + F2(am) + (F2(bm) - F2(am)) * (x - am) / (bm - am)
        assert np.max(np.abs(level[probes] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_potentials_run_in_linear_memory():
    grid = make_grid(Interval(0.0, 1.0), 4001)
    k = Kernel.closed_form(grid.interval)
    smooth = sample(lambda x: np.cos(x), grid)
    singular = sample(lambda x: min(x, 1 - x) ** -1.5, grid)
    tracemalloc.start()
    try:
        potential(k, smooth)
        potential(k, singular)
        potential_improper(k, smooth, levels=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6    # a dense 4001² kernel alone is 128 MB


def _shell_by_shell_moment(dx, eval_from_edge, weight_exponent=1):
    """Reference: the boundary-panel moment one shell call at a time."""
    base = np.mod(np.arange(1, green.SHELL_POINTS // 2 + 1) * 0.6180339887498949, 1.0)
    offs = np.sort(np.concatenate([0.5 * base, 1.0 - 0.5 * base]))

    def shell(m):
        hi = dx * 2.0 ** (-m)
        lo = hi / 2.0
        width = hi - lo
        d = lo + offs * width
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = (d ** weight_exponent) * np.asarray(eval_from_edge(d), dtype=float)
        g = np.where(np.isfinite(g), g, 0.0)
        return float(np.sum(g) * (width / offs.size))

    total = 0.0
    prev = prev2 = None
    slow = 0
    for m in range(green.SHELL_LEVELS):
        cur = shell(m)
        total += cur
        if prev is not None and prev > 0.0 and cur > 0.0:
            slow = slow + 1 if cur / prev >= green.DIVERGENCE_RATIO else 0
            if slow >= 3:
                return np.inf, True
        elif prev is not None:
            slow = 0
        prev2, prev = prev, cur
        if abs(cur) <= 1e-18 * max(abs(total), 1e-300):
            break
    if prev and prev2:
        r = prev / prev2
        if 0.0 < r < 0.95:
            total += prev * r / (1.0 - r)
    return total, False


def _edge_sources(grid, beta):
    return [
        green._edge_source(green._part_fn(lambda x: x ** -beta, 1), grid, 1),
        green._edge_source(green._part_fn(lambda x: (1.0 - x) ** -beta, 1), grid, -1),
        green._edge_source(green._part_fn(
            lambda x: (1.0 - x) ** -beta * np.sin(1.0 / (1.0 - x)), -1), grid, -1),
    ]


def test_shell_stack_matches_shell_by_shell_loop():
    grid = make_grid(Interval(0.0, 1.0), 2001)
    dx = grid.spacing
    for beta in np.arange(0.1, 3.45, 0.1):
        for src in _edge_sources(grid, beta):
            for weight in (1, 2):
                got = green._singular_panel_moment(dx, src, weight)
                assert got == _shell_by_shell_moment(dx, src, weight), (beta, weight)
    # a source that diverges within the first shells
    early = green._edge_source(green._part_fn(lambda x: x ** -6.0, 1), grid, 1)
    assert green._singular_panel_moment(dx, early, 1) == (np.inf, True)
    assert _shell_by_shell_moment(dx, early, 1) == (np.inf, True)


def test_attached_expression_called_once_per_edge_and_part():
    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    sizes = []

    def expr(x):
        sizes.append(np.size(x))
        return np.minimum(x, 1.0 - x) ** -0.5

    f = sample(expr, grid)
    sizes.clear()
    green._singular_panel_moment(grid.spacing,
                                 green._edge_source(green._part_fn(expr, 1), grid, -1))
    assert len(sizes) == 1
    sizes.clear()
    assert potential(k, f).finite
    # two parts x two probed edges x (one shell stack + one batch of Gauss panels)
    assert len(sizes) == 8


def _value_only_power(grid, beta):
    """min(x-a, b-x)^{-beta} on the nodes, distances exact multiples of dx."""
    i = np.arange(grid.n)
    with np.errstate(divide="ignore"):
        return GridFn(grid, (np.minimum(i, grid.n - 1 - i) * grid.spacing) ** -beta)


@pytest.mark.parametrize("e", [1, 2])
def test_value_only_edge_moment_is_the_exact_power_moment(e):
    grid = make_grid(Interval(0.0, 1.0), 2001)
    dx = grid.spacing
    for beta in (0.2, 0.5, 1.0, 1.5, 1.8, 1.95):
        f = _value_only_power(grid, beta)
        for inward in (1, -1):
            want = f.values[1] * dx ** (e + 1) / (e + 1 - beta)
            got, diverged = green._edge_moment(f, 1, inward, e)
            assert not diverged
            assert got == pytest.approx(want, rel=1e-14), (beta, inward)
            assert green._edge_moment(f, -1, inward, e) == (0.0, False)
    for beta in (e + 1.0, e + 1.3):
        for inward in (1, -1):
            assert green._edge_moment(_value_only_power(grid, beta), 1, inward, e) \
                == (np.inf, True)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_value_only_edge_moment_on_small_grids(n):
    """The fit nodes 2 and 4 may be an endpoint or past the midpoint.

    For n <= 4 node 2 is the far endpoint or sees the other edge, so the
    fit is the constant model.  The third node is read only when it lies in
    the endpoint's half (n >= 9), so the fold of min(x, 1-x) never reads as
    a steepening exponent; without it the verdict keeps the shell rule's
    margin, and d^{-1.9} reads +inf.
    """
    grid = make_grid(Interval(0.0, 1.0), n)
    dx = grid.spacing
    margin = 0.0 if n >= 9 else math.log2(green.DIVERGENCE_RATIO)
    for beta in (0.0, 0.5, 1.0, 1.5, 1.9, 2.5):
        vals = _value_only_power(grid, beta).values.copy()
        vals[[0, -1]] = np.inf
        f = GridFn(grid, vals)
        s = beta if n >= 5 else 0.0
        for inward in (1, -1):
            for e in (1, 2):
                got, diverged = green._edge_moment(f, 1, inward, e)
                assert diverged == (s >= e + 1 + margin), (beta, inward, e)
                if not diverged:
                    assert got == pytest.approx(f.values[1] * dx ** (e + 1) / (e + 1 - s))
        assert potential(Kernel.closed_form(grid.interval), f).plus_infinite \
            == (s >= 2.0 + margin)


@pytest.mark.parametrize("n", [17, 401, 2001])
def test_value_only_threshold_source_with_a_correction_diverges(n):
    """d^{-e-1}(1 + d) does not integrate, though its fitted exponent is below e+1.

    The exponent extrapolated through three nodes misses e+1 by O(dx^2);
    its uncertainty |s - s24| = O(dx) keeps the verdict +inf.
    """
    grid = make_grid(Interval(0.0, 1.0), n)
    k = Kernel.closed_form(grid.interval)
    d = grid.boundary_distance()
    with np.errstate(divide="ignore"):
        assert potential(k, GridFn(grid, d ** -2.0 + d ** -1.0)).plus_infinite
        with pytest.raises(NotIntegrableError):
            iterated_kernel(k, GridFn(grid, d ** -3.0 + d ** -2.0), 0.3, 0.6)


def test_value_only_verdict_never_diverges_below_the_shell_margin():
    """The third node only clears a +inf read by the two-node margin rule.

    Sources oscillating at the grid scale give triples f(dx), f(2dx), f(4dx)
    that no power law fits; they must not read +inf where the two-node fit
    with the shell rule's margin reads finite.
    """
    grid = make_grid(Interval(0.0, 1.0), 2001)
    vals = np.ones(grid.n)
    rng = np.random.default_rng(7)
    for _ in range(400):
        vals[1:5] = np.exp(rng.uniform(-2.0, 2.0, 4))
        f = GridFn(grid, vals)
        s = math.log2(vals[1] / vals[2])
        for e in (1, 2):
            if green._edge_moment(f, 1, 1, e)[1]:
                assert s >= e + 1 + math.log2(green.DIVERGENCE_RATIO)
    # d^{-1/2}(1.01 + sin(w/d)), w = 0.0032: f(dx), f(2dx), f(4dx) = 51.8, 29.6, 44.9
    d = grid.boundary_distance()
    with np.errstate(divide="ignore", invalid="ignore"):
        f = GridFn(grid, np.where(d > 0.0, d ** -0.5 * (1.01 + np.sin(0.0032 / d)), np.inf))
    assert potential(Kernel.closed_form(grid.interval), f).finite


def test_value_only_sources_never_reach_the_shell_stack(monkeypatch):
    from greenbound import sharp_constants, solve_integral_equation

    def shell_stack(*args, **kwargs):
        raise AssertionError("shell stack called on value-only data")

    monkeypatch.setattr(green, "_singular_panel_moment", shell_stack)
    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    h = potential(k, sample(lambda x: 1.0, grid)).value
    for q in (-1.0, 2.0):
        c = 0.9 * sharp_constants(q)[0]
        with np.errstate(divide="ignore"):
            V = GridFn(grid, (c if q < 0 else -c) * h.values ** (-q))
        assert solve_integral_equation(k, h, V, q).converged
    V = _value_only_power(grid, 2.5)
    assert math.isfinite(iterated_kernel(k, V, 0.3, 0.6))


@pytest.mark.parametrize("beta", [1.85, 1.9, 1.95, 1.99, 2.0])
def test_value_only_potential_below_the_threshold(beta):
    """The closed-form moment reads d^{-beta}, beta < 2, as finite."""
    from perfbench.oracles import power_source_potential

    grid = make_grid(Interval(0.0, 1.0), 2001)
    res = potential(Kernel.closed_form(grid.interval), _value_only_power(grid, beta))
    got = res.value.values[grid.n // 2]
    if beta >= 2.0:
        assert res.plus_infinite and np.isposinf(got)
    else:
        assert res.finite
        assert got == pytest.approx(power_source_potential(0.5, beta, "two"), rel=5e-3)


@pytest.mark.parametrize("beta", [2.85, 2.9, 2.95, 3.0])
def test_value_only_iterated_kernel_below_the_threshold(beta):
    from perfbench.oracles import iterated_power_kernel

    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    V = _value_only_power(grid, beta)
    if beta >= 3.0:
        with pytest.raises(NotIntegrableError):
            iterated_kernel(k, V, 0.3, 0.6)
    else:
        got = iterated_kernel(k, V, 0.3, 0.6)
        assert got == pytest.approx(iterated_power_kernel(0.3, 0.6, beta), rel=5e-3)


def test_scalar_expression_never_evaluated_at_the_endpoint():
    grid = make_grid(Interval(0.0, 1.0), 2001)
    k = Kernel.closed_form(grid.interval)
    vals = np.append((1.0 - grid.nodes[:-1]) ** -1.5, np.inf)
    got = potential(k, GridFn(grid, vals, fn=lambda x: math.pow(1.0 - x, -1.5)))
    want = potential(k, GridFn(grid, vals, fn=lambda x: (1.0 - x) ** -1.5))
    assert got.finite and want.finite
    ref = want.value.values
    assert np.max(np.abs(got.value.values - ref)) <= 1e-14 * np.max(np.abs(ref))
